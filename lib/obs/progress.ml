(* In-flight introspection: per-request progress heartbeats, cooperative
   deadlines, and a bounded flight recorder.

   A request that wants live visibility installs a context with [run];
   solvers then call the probes ([tick], [bound]) from their inner
   loops, and enter phases through [Trace.start_phase], which names the
   phase after the span it opens.  Like [Trace], the disabled path is
   allocation-free: with no context installed every probe is one load
   and a branch.

   When armed, [tick] counts one unit of work and burns one unit of
   fuel; every [interval] ticks it takes a heartbeat — read the clock,
   record a snapshot into the ring, and check the deadline.  A blown
   deadline marks the context cancelled and raises [Deadline_exceeded]
   from the tick site, so cancellation surfaces inside whatever loop was
   doing the work — including chunks running on [Par] worker domains,
   which observe the same context through the process-global slot.
   [phase] heartbeats unconditionally but never raises; the next tick
   after a blown deadline raises immediately (one load, no fuel wait).

   Counters are racy-but-benign across domains, same policy as the
   registry cells: a torn [work] read costs a stale INFLIGHT line, not
   a wrong answer. *)

exception Deadline_exceeded

type snapshot = {
  at : float; (* seconds since the request started *)
  s_phase : string;
  s_work : int;
  s_bound : int; (* -1 when no bound is known *)
}

type t = {
  id : int;
  label : string;
  session : string;
  clock : unit -> float;
  started : float;
  deadline : float; (* absolute, [infinity] when none *)
  interval : int;
  mutable branch : string; (* plan branch, "?" until the engine routes *)
  mutable cur_phase : string;
  mutable work : int;
  mutable best_bound : int;
  mutable fuel : int;
  mutable last_beat : float;
  mutable cancel : bool;
  ring : snapshot option array;
  mutable ring_pos : int;
  mutable ring_len : int;
}

let c_heartbeats = Counter.make "progress.heartbeats"
let c_expired = Counter.make "progress.deadline_expired"

(* Fuel between deadline checks.  Settable so tests can force a check on
   every tick; the default keeps the armed-path clock reads amortized. *)
let default_interval = ref 64
let set_check_interval n = default_interval := max 1 n
let check_interval () = !default_interval

let create ?(deadline_s = infinity) ?(ring = 32) ?(clock = Unix.gettimeofday)
    ?now ?(session = "-") ~label ~id () =
  (* [now] lets a caller that already read the clock (the handler's
     request timestamp) avoid a second read — stub clocks in tests count
     their pops. *)
  let t0 = match now with Some t -> t | None -> clock () in
  {
    id;
    label;
    session;
    clock;
    started = t0;
    deadline = (if deadline_s = infinity then infinity else t0 +. deadline_s);
    interval = !default_interval;
    branch = "?";
    cur_phase = "start";
    work = 0;
    best_bound = -1;
    fuel = !default_interval;
    last_beat = t0;
    cancel = false;
    ring = Array.make (max 1 ring) None;
    ring_pos = 0;
    ring_len = 0;
  }

(* The ambient context.  [Par] worker domains read the same slot, so a
   deadline blown on one domain cancels the chunks on all of them; the
   slot is only written by the domain that owns the request. *)
let current : t option ref = ref None

(* Registration list backing INFLIGHT / gauges / the signal flush.
   Mutated only by the installing domain, read lock-free. *)
let live : t list ref = ref []

let active () = !current
let armed () = match !current with None -> false | Some _ -> true

let record c now =
  let s =
    { at = now -. c.started; s_phase = c.cur_phase; s_work = c.work;
      s_bound = c.best_bound }
  in
  c.ring.(c.ring_pos) <- Some s;
  c.ring_pos <- (c.ring_pos + 1) mod Array.length c.ring;
  if c.ring_len < Array.length c.ring then c.ring_len <- c.ring_len + 1

let beat c =
  let now = c.clock () in
  c.last_beat <- now;
  record c now;
  Counter.incr c_heartbeats;
  if now > c.deadline && not c.cancel then begin
    c.cancel <- true;
    Counter.incr c_expired
  end

let tick () =
  match !current with
  | None -> ()
  | Some c ->
      if c.cancel then raise Deadline_exceeded;
      c.work <- c.work + 1;
      c.fuel <- c.fuel - 1;
      if c.fuel <= 0 then begin
        c.fuel <- c.interval;
        beat c;
        if c.cancel then raise Deadline_exceeded
      end

let phase name =
  match !current with
  | None -> ()
  | Some c ->
      c.cur_phase <- name;
      beat c

let bound b =
  match !current with
  | None -> ()
  | Some c -> if c.best_bound < 0 || b < c.best_bound then c.best_bound <- b

let set_branch s = match !current with None -> () | Some c -> c.branch <- s

let run c f =
  let prev = !current in
  current := Some c;
  live := c :: !live;
  let cleanup () =
    current := prev;
    live := List.filter (fun x -> x != c) !live
  in
  match f () with
  | r ->
      cleanup ();
      r
  | exception e ->
      cleanup ();
      raise e

let inflight () = List.sort (fun a b -> Int.compare a.id b.id) !live
let is_cancel = function Deadline_exceeded -> true | _ -> false

let id c = c.id
let label c = c.label
let session c = c.session
let branch c = c.branch
let phase_of c = c.cur_phase
let work c = c.work
let started c = c.started
let cancelled c = c.cancel
let budget_s c = if c.deadline = infinity then None else Some (c.deadline -. c.started)
let now_or_clock c = function Some n -> n | None -> c.clock ()

let elapsed ?now c =
  let now = now_or_clock c now in
  Float.max 0.0 (now -. c.started)

let heartbeat_age ?now c =
  let now = now_or_clock c now in
  Float.max 0.0 (now -. c.last_beat)

let snapshot c =
  { at = Float.max 0.0 (c.last_beat -. c.started); s_phase = c.cur_phase;
    s_work = c.work; s_bound = c.best_bound }

let history c =
  (* Oldest first: the ring holds the last [ring_len] snapshots with the
     write head at [ring_pos]. *)
  let n = Array.length c.ring in
  let out = ref [] in
  for i = c.ring_len downto 1 do
    match c.ring.((c.ring_pos - i + (2 * n)) mod n) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  List.rev !out

let pp_bound b = if b < 0 then "-" else string_of_int b

let describe ?now c =
  let now = now_or_clock c now in
  Printf.sprintf
    "rid=%d command=%s sid=%s branch=%s phase=%s work=%d bound=%s \
     elapsed_ms=%.0f heartbeat_age_ms=%.0f%s"
    c.id c.label c.session c.branch c.cur_phase c.work (pp_bound c.best_bound)
    (elapsed ~now c *. 1e3)
    (heartbeat_age ~now c *. 1e3)
    (if c.deadline = infinity then ""
     else Printf.sprintf " deadline_in_ms=%.0f" ((c.deadline -. now) *. 1e3))

let snapshot_line s =
  Printf.sprintf "t+%.1fms phase=%s work=%d bound=%s" (s.at *. 1e3) s.s_phase
    s.s_work (pp_bound s.s_bound)

let history_lines c = List.map snapshot_line (history c)
