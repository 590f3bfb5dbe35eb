(* The telemetry half of lib/obs: named counters, gauges and latency
   histograms behind a registry.  One registry is "current" at any time;
   swapping it (a new server handler, a test) bumps a global epoch so
   that Counter handles re-resolve their cells lazily instead of writing
   into a registry that is no longer observed. *)

type histogram = {
  bounds : float array; (* upper bounds, seconds, strictly increasing *)
  buckets : int array; (* length bounds + 1: the last is overflow *)
  mutable hcount : int;
  mutable hsum : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  (* Name-sorted counter cells, rebuilt lazily when a counter is
     created: per-request snapshots (the workload store, the slow-query
     log) deref this array instead of folding and sorting the table. *)
  mutable cells : (string * int ref) array;
  mutable cells_stale : bool;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    cells = [||];
    cells_stale = false;
  }

let global = ref (create ())
let epoch = ref 0
let current () = !global

let set_current r =
  global := r;
  incr epoch

let swap_epoch () = !epoch

(* Cell resolution may now race across domains (Par workers bind counter
   handles lazily), so table mutation is serialized.  The cells themselves
   stay plain int refs: increments are racy-but-benign telemetry. *)
let table_lock = Mutex.create ()

let with_lock f =
  Mutex.lock table_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock table_lock) f

let counter_cell t name =
  with_lock (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Hashtbl.replace t.counters name c;
          t.cells_stale <- true;
          c)

let sorted_cells t =
  if t.cells_stale then
    with_lock (fun () ->
        let l = Hashtbl.fold (fun n c acc -> (n, c) :: acc) t.counters [] in
        t.cells <-
          Array.of_list
            (List.sort (fun (a, _) (b, _) -> String.compare a b) l);
        t.cells_stale <- false);
  t.cells

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> !c | None -> 0

let by_name compare_v (a, av) (b, bv) =
  match String.compare a b with 0 -> compare_v av bv | c -> c

let counters_list t =
  Array.fold_right (fun (n, c) acc -> (n, !c) :: acc) (sorted_cells t) []

let counter_snapshot = counters_list

let counter_delta ~since t =
  (* Both sides are name-sorted ([counters_list] output), so the delta
     is a linear merge-join. *)
  let rec merge acc fresh since =
    match (fresh, since) with
    | [], _ -> List.rev acc
    | (n, v) :: fr, [] ->
        merge (if v <> 0 then (n, v) :: acc else acc) fr []
    | (n, v) :: fr, ((n', o) :: sr as s) -> (
        match String.compare n n' with
        | 0 -> merge (if v - o <> 0 then (n, v - o) :: acc else acc) fr sr
        | c when c < 0 -> merge (if v <> 0 then (n, v) :: acc else acc) fr s
        | _ -> merge acc fresh sr)
  in
  merge [] (counters_list t) since

(* The per-request metering path: a baseline is one int array over the
   cached cell array — no per-counter tuples — and the delta allocates
   only for counters that actually moved.  [counter_delta_since] falls
   back to the name-keyed merge when a counter was created mid-request
   (the cell array changed underneath the baseline). *)

type counter_baseline = {
  b_cells : (string * int ref) array;
  b_values : int array;
}

let counter_baseline ?reuse t =
  let cells = sorted_cells t in
  match reuse with
  | Some b when b.b_cells == cells ->
      (* Steady state: same cell array as last time, so refresh the
         values in place — no allocation on the per-request path. *)
      for i = 0 to Array.length cells - 1 do
        b.b_values.(i) <- !(snd cells.(i))
      done;
      b
  | _ -> { b_cells = cells; b_values = Array.map (fun (_, c) -> !c) cells }

let counter_delta_since b t =
  let cells = sorted_cells t in
  if cells == b.b_cells then begin
    let acc = ref [] in
    for i = Array.length cells - 1 downto 0 do
      let n, c = cells.(i) in
      let d = !c - b.b_values.(i) in
      if d <> 0 then acc := (n, d) :: !acc
    done;
    !acc
  end
  else
    counter_delta
      ~since:
        (Array.to_list
           (Array.mapi (fun i (n, _) -> (n, b.b_values.(i))) b.b_cells))
      t

let set_gauge t name v =
  with_lock (fun () ->
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g := v
      | None -> Hashtbl.replace t.gauges name (ref v))

let gauge_value t name =
  Option.map ( ! ) (Hashtbl.find_opt t.gauges name)

let gauges_list t =
  Hashtbl.fold (fun name g acc -> (name, !g) :: acc) t.gauges []
  |> List.sort (by_name Float.compare)

(* Decade buckets, 1 µs to 10 s, the one latency shape of the serving
   layer.  A value equal to a bound lands in that bound's bucket, which
   is what the Prometheus [le] label promises. *)
let decade_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let new_histogram bounds =
  { bounds; buckets = Array.make (Array.length bounds + 1) 0; hcount = 0; hsum = 0.0 }

let make_histogram () = new_histogram decade_bounds

let histogram ?(bounds = decade_bounds) t name =
  with_lock (fun () ->
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
          let h = new_histogram bounds in
          Hashtbl.replace t.histograms name h;
          h)

let observe h x =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || x <= h.bounds.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. x

let hist_count h = h.hcount
let hist_sum h = h.hsum
let hist_bounds h = Array.copy h.bounds
let hist_raw_buckets h = Array.copy h.buckets
let hist_mean h = if h.hcount = 0 then 0.0 else h.hsum /. float_of_int h.hcount

let label_of_seconds s =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.0fms" (s *. 1e3)
  else Printf.sprintf "%.0fs" s

let bucket_label h i =
  if i < Array.length h.bounds then "le_" ^ label_of_seconds h.bounds.(i)
  else "gt_" ^ label_of_seconds h.bounds.(Array.length h.bounds - 1)

let hist_buckets h =
  Array.to_list (Array.mapi (fun i c -> (bucket_label h i, c)) h.buckets)

(* Quantile estimate: find the bucket where the cumulative count crosses
   q * total and interpolate linearly inside it.  The overflow bucket has
   no upper bound, so it reports its lower bound. *)
let quantile h q =
  if h.hcount = 0 then 0.0
  else begin
    let target = q *. float_of_int h.hcount in
    let nb = Array.length h.bounds in
    let rec go i acc =
      let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
      if i = nb then lo
      else
        let c = h.buckets.(i) in
        if c > 0 && float_of_int (acc + c) >= target then
          let frac = (target -. float_of_int acc) /. float_of_int c in
          lo +. (frac *. (h.bounds.(i) -. lo))
        else go (i + 1) (acc + c)
    in
    go 0 0
  end

let histograms_list t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let render_histogram name h =
  let cells =
    hist_buckets h
    |> List.map (fun (label, c) -> Printf.sprintf "%s:%d" label c)
    |> String.concat ","
  in
  (* A histogram with zero observations has no mean or quantiles; print
     "-" rather than a fabricated 0.0. *)
  if hist_count h = 0 then
    Printf.sprintf "%s count=0 mean_us=- p50_us=- p95_us=- p99_us=- hist=%s"
      name cells
  else
    Printf.sprintf
      "%s count=%d mean_us=%.1f p50_us=%.1f p95_us=%.1f p99_us=%.1f hist=%s"
      name (hist_count h)
      (hist_mean h *. 1e6)
      (quantile h 0.50 *. 1e6)
      (quantile h 0.95 *. 1e6)
      (quantile h 0.99 *. 1e6)
      cells

(* One line per entry, merged across counters, gauges and histograms and
   sorted by name, so dumps (STATS, --metrics-dump) diff stably no
   matter in which order the entries were created. *)
let render t =
  List.map (fun (n, v) -> (n, Printf.sprintf "%s %d" n v)) (counters_list t)
  @ List.map (fun (n, v) -> (n, Printf.sprintf "%s %g" n v)) (gauges_list t)
  @ List.map (fun (n, h) -> (n, render_histogram n h)) (histograms_list t)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd
