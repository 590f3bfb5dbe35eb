(* Hierarchical spans.  One process-global sink collects completed spans
   while tracing is enabled; [start]/[finish] are the zero-allocation
   probes for hot paths (disabled tracing returns the [none] token and
   does nothing), [with_span] is the exception-safe convenience.

   The clock is wall time clamped to be non-decreasing, so span
   timestamps are monotone even across an NTP step. *)

type span = {
  id : int; (* 1-based, in start order *)
  parent : int; (* 0 for a root span *)
  name : string;
  mutable attrs : (string * string) list; (* reverse order of addition *)
  t0 : float; (* seconds *)
  mutable t1 : float; (* neg_infinity while open *)
}

type sink = {
  mutable finished : span list; (* most recently finished first *)
  mutable nfinished : int;
  mutable dropped : int;
  mutable stack : span list; (* open spans, innermost first *)
  mutable next_id : int;
  limit : int;
}

let default_limit = 100_000

let make_sink ?(limit = default_limit) () =
  { finished = []; nfinished = 0; dropped = 0; stack = []; next_id = 1; limit }

let enabled = ref false
let the_sink = ref (make_sink ())

let is_enabled () = !enabled
let set_enabled b = enabled := b

let last_now = ref 0.0

let now () =
  let t = Unix.gettimeofday () in
  if t > !last_now then last_now := t;
  !last_now

type id = int

let none = 0

let start name =
  if not !enabled then none
  else begin
    let s = !the_sink in
    let id = s.next_id in
    s.next_id <- id + 1;
    let parent = match s.stack with [] -> 0 | p :: _ -> p.id in
    let sp = { id; parent; name; attrs = []; t0 = now (); t1 = neg_infinity } in
    s.stack <- sp :: s.stack;
    id
  end

(* The phase name a request shows in INFLIGHT, the flight recorder and
   a deadline ERR is the span's own name, so both views speak the
   vocabulary [Stats.phase_of_span] maps to cost centers. *)
let start_phase name =
  let id = start name in
  Progress.phase name;
  id

let finish id =
  if id <> none then begin
    let s = !the_sink in
    (* The id may belong to a sink swapped out by [collect] in between;
       only unwind when it is actually on this stack. *)
    if List.exists (fun sp -> sp.id = id) s.stack then begin
      let t = now () in
      let rec pop = function
        | [] -> []
        | sp :: rest ->
            sp.t1 <- t;
            if s.nfinished < s.limit then begin
              s.finished <- sp :: s.finished;
              s.nfinished <- s.nfinished + 1
            end
            else s.dropped <- s.dropped + 1;
            if sp.id = id then rest else pop rest
      in
      s.stack <- pop s.stack
    end
  end

let attr k v =
  if !enabled then
    match (!the_sink).stack with
    | [] -> ()
    | sp :: _ -> sp.attrs <- (k, v) :: sp.attrs

let attr_int k n = if !enabled then attr k (string_of_int n)

let with_span ?attrs name f =
  if not !enabled then f ()
  else begin
    let id = start name in
    (match attrs with
    | None -> ()
    | Some l -> List.iter (fun (k, v) -> attr k v) l);
    match f () with
    | r ->
        finish id;
        r
    | exception e ->
        finish id;
        raise e
  end

let by_id a b = Int.compare a.id b.id
let spans () = List.sort by_id (!the_sink).finished

let clear () =
  let limit = (!the_sink).limit in
  the_sink := make_sink ~limit ()

let drain () =
  let s = !the_sink in
  let out = List.sort by_id s.finished in
  s.finished <- [];
  s.nfinished <- 0;
  out

let dropped () = (!the_sink).dropped

let collect ?limit f =
  let old_sink = !the_sink and old_enabled = !enabled in
  the_sink := make_sink ?limit ();
  enabled := true;
  let restore () =
    the_sink := old_sink;
    enabled := old_enabled
  in
  match f () with
  | r ->
      let out = spans () in
      restore ();
      (r, out)
  | exception e ->
      restore ();
      raise e

let duration sp = if sp.t1 < sp.t0 then 0.0 else sp.t1 -. sp.t0
