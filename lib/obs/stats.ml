(* Bounded statements store for workload introspection: per
   (fingerprint, plan-branch) aggregates with deterministic eviction,
   plus eviction-proof per-branch and per-phase cost centers. *)

type cache_outcome = Hit | Miss | Uncached

type entry = {
  fingerprint : string;
  branch : string;
  mutable calls : int;
  mutable errors : int;
  mutable wall_s : float;
  mutable max_s : float;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable rows : int;
  mutable phase_s : (string * float) list;
  mutable counters : (string * int) list;
  latency : Registry.histogram;
}

(* Eviction-proof per-branch cost center. *)
type center = {
  mutable c_errors : int;
  c_hist : Registry.histogram;
  mutable c_phase_s : (string * float) list;
}

type t = {
  capacity : int;
  table : (string * string, entry) Hashtbl.t;
  branches : (string, center) Hashtbl.t;
  phase_hist : (string, Registry.histogram) Hashtbl.t;
  mutable recorded : int;
  mutable evicted : int;
  mutable total_wall_s : float;
  mutable evicted_wall_s : float;
}

let create ?(capacity = 256) () =
  {
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    branches = Hashtbl.create 8;
    phase_hist = Hashtbl.create 8;
    recorded = 0;
    evicted = 0;
    total_wall_s = 0.0;
    evicted_wall_s = 0.0;
  }

(* Merge-add into an assoc list kept sorted by key. *)
let rec merge_assoc add base extra =
  match (base, extra) with
  | [], e -> e
  | b, [] -> b
  | (kb, vb) :: tb, (ke, ve) :: te ->
      let c = String.compare kb ke in
      if c = 0 then (kb, add vb ve) :: merge_assoc add tb te
      else if c < 0 then (kb, vb) :: merge_assoc add tb ((ke, ve) :: te)
      else (ke, ve) :: merge_assoc add ((kb, vb) :: tb) te

let sort_assoc kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

let merge_float base extra = merge_assoc ( +. ) base (sort_assoc extra)
let merge_int base extra = merge_assoc ( + ) base (sort_assoc extra)

(* Phase attribution ------------------------------------------------- *)

(* Span-name prefix -> cost center; the first match wins. *)
let cost_centers =
  [
    ("engine.classify", "classify");
    ("rewrite.", "rewrite");
    ("conflict_graph", "conflict_graph");
    ("sat.", "sat");
    ("cavsat.", "sat");
    ("repairs.", "enumeration");
    ("asp.", "asp");
  ]

let phase_of_span name =
  List.find_map
    (fun (prefix, center) ->
      if String.starts_with ~prefix name then Some center else None)
    cost_centers

(* An open ancestor during the walk below. *)
type frame = {
  f_id : int;
  f_phase : string;
  f_dur : float;
  mutable f_children : float;
}

(* Spans come in start order, so when a span arrives every open span
   with a larger id than its parent has already ended: pop those (they
   are complete, so their self time is known) and the parent, if it was
   kept, is on top.  An orphan (parent dropped) starts from "other". *)
let phases_of_spans spans =
  let totals = ref [] in
  let close f =
    let self = f.f_dur -. f.f_children in
    if self > 0.0 then totals := merge_assoc ( +. ) !totals [ (f.f_phase, self) ]
  in
  let rec unwind parent = function
    | f :: rest when f.f_id > parent ->
        close f;
        unwind parent rest
    | stack -> stack
  in
  let push stack (s : Trace.span) =
    let stack = unwind s.parent stack in
    let dur = Trace.duration s in
    let inherited =
      match stack with
      | f :: _ when f.f_id = s.parent ->
          f.f_children <- f.f_children +. dur;
          f.f_phase
      | _ -> "other"
    in
    let f_phase = Option.value ~default:inherited (phase_of_span s.name) in
    { f_id = s.id; f_phase; f_dur = dur; f_children = 0.0 } :: stack
  in
  List.iter close (List.fold_left push [] spans);
  !totals

(* Recording --------------------------------------------------------- *)

let center_of t branch =
  match Hashtbl.find_opt t.branches branch with
  | Some c -> c
  | None ->
      let c = { c_errors = 0; c_hist = Registry.make_histogram (); c_phase_s = [] } in
      Hashtbl.replace t.branches branch c;
      c

let phase_hist_of t phase =
  match Hashtbl.find_opt t.phase_hist phase with
  | Some h -> h
  | None ->
      let h = Registry.make_histogram () in
      Hashtbl.replace t.phase_hist phase h;
      h

let evict_min t =
  (* Deterministic: least total wall goes; ties by fingerprint, then
     branch, both ascending. *)
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | None -> Some e
        | Some best ->
            let c = compare e.wall_s best.wall_s in
            let worse =
              c < 0
              || c = 0
                 && (String.compare e.fingerprint best.fingerprint < 0
                    || String.compare e.fingerprint best.fingerprint = 0
                       && String.compare e.branch best.branch < 0)
            in
            if worse then Some e else acc)
      t.table None
  in
  match victim with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.table (e.fingerprint, e.branch);
      t.evicted <- t.evicted + 1;
      t.evicted_wall_s <- t.evicted_wall_s +. e.wall_s

let entry_of t ~fingerprint ~branch =
  let key = (fingerprint, branch) in
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict_min t;
      let e =
        {
          fingerprint;
          branch;
          calls = 0;
          errors = 0;
          wall_s = 0.0;
          max_s = 0.0;
          cache_hits = 0;
          cache_misses = 0;
          rows = 0;
          phase_s = [];
          counters = [];
          latency = Registry.make_histogram ();
        }
      in
      Hashtbl.replace t.table key e;
      e

let record t ~fingerprint ~branch ~wall_s ?(rows = 0) ?(cache = Uncached)
    ?(error = false) ?(phases = []) ?(counters = []) () =
  t.recorded <- t.recorded + 1;
  t.total_wall_s <- t.total_wall_s +. wall_s;
  let e = entry_of t ~fingerprint ~branch in
  e.calls <- e.calls + 1;
  if error then e.errors <- e.errors + 1;
  e.wall_s <- e.wall_s +. wall_s;
  if wall_s > e.max_s then e.max_s <- wall_s;
  (match cache with
  | Hit -> e.cache_hits <- e.cache_hits + 1
  | Miss -> e.cache_misses <- e.cache_misses + 1
  | Uncached -> ());
  e.rows <- e.rows + rows;
  Registry.observe e.latency wall_s;
  if phases <> [] then e.phase_s <- merge_float e.phase_s phases;
  if counters <> [] then e.counters <- merge_int e.counters counters;
  let c = center_of t branch in
  if error then c.c_errors <- c.c_errors + 1;
  Registry.observe c.c_hist wall_s;
  if phases <> [] then begin
    c.c_phase_s <- merge_float c.c_phase_s phases;
    List.iter (fun (p, s) -> Registry.observe (phase_hist_of t p) s) phases
  end

(* Inspection -------------------------------------------------------- *)

let length t = Hashtbl.length t.table
let recorded t = t.recorded
let evicted t = t.evicted
let total_wall_s t = t.total_wall_s

let attributed_s t = t.total_wall_s -. t.evicted_wall_s

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b ->
         let c = compare b.wall_s a.wall_s in
         if c <> 0 then c
         else
           let c = String.compare a.fingerprint b.fingerprint in
           if c <> 0 then c else String.compare a.branch b.branch)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let top t n = take n (entries t)

let quantile e q = Registry.quantile e.latency q

let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.branches;
  Hashtbl.reset t.phase_hist;
  t.recorded <- 0;
  t.evicted <- 0;
  t.total_wall_s <- 0.0;
  t.evicted_wall_s <- 0.0

(* Rendering --------------------------------------------------------- *)

let ms v = Printf.sprintf "%.3f" (v *. 1e3)

let phase_split kvs =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%sms" k (ms v)) kvs)

let counter_split kvs =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)

let render_top t n =
  let es = top t n in
  if es = [] then [ "workload empty" ]
  else
    List.concat
      (List.mapi
         (fun i e ->
           let mean = Registry.hist_mean e.latency in
           let first =
             Printf.sprintf "%d. wall_ms %s calls %d branch %s fp %s" (i + 1)
               (ms e.wall_s) e.calls e.branch e.fingerprint
           in
           let second =
             Printf.sprintf
               "   mean_ms %s p50_ms %s p95_ms %s max_ms %s errors %d hits %d misses %d rows %d"
               (ms mean)
               (ms (quantile e 0.50))
               (ms (quantile e 0.95))
               (ms e.max_s) e.errors e.cache_hits e.cache_misses e.rows
           in
           let rest =
             (if e.phase_s = [] then []
              else [ "   phases " ^ phase_split e.phase_s ])
             @
             if e.counters = [] then []
             else [ "   counters " ^ counter_split e.counters ]
           in
           first :: second :: rest)
         es)

let centers t =
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) t.branches []
  |> List.sort (fun (na, a) (nb, b) ->
         let c = compare (Registry.hist_sum b.c_hist) (Registry.hist_sum a.c_hist) in
         if c <> 0 then c else String.compare na nb)

let render_by_branch t =
  let cs = centers t in
  if cs = [] then [ "workload empty" ]
  else
    let total = t.total_wall_s in
    List.concat
      (List.map
         (fun (name, c) ->
           let h = c.c_hist in
           let wall = Registry.hist_sum h in
           let share = if total > 0.0 then wall /. total else 0.0 in
           let first =
             Printf.sprintf
               "branch %s calls %d wall_ms %s share %.3f mean_ms %s p95_ms %s errors %d"
               name (Registry.hist_count h) (ms wall) share
               (ms (Registry.hist_mean h))
               (ms (Registry.quantile h 0.95))
               c.c_errors
           in
           if c.c_phase_s = [] then [ first ]
           else [ first; "   phases " ^ phase_split c.c_phase_s ])
         cs)

let summary_lines t =
  [
    Printf.sprintf "workload.attributed_s %.6f" (attributed_s t);
    Printf.sprintf "workload.evicted %d" t.evicted;
    Printf.sprintf "workload.fingerprints %d" (Hashtbl.length t.table);
    Printf.sprintf "workload.recorded %d" t.recorded;
    Printf.sprintf "workload.total_s %.6f" t.total_wall_s;
  ]

let prometheus_lines t =
  (* Prometheus.sample does not add the namespace prefix, so spell the
     cqa_ out here to match the HELP/TYPE headers. *)
  let family name label help series =
    if series = [] then []
    else
      Printf.sprintf "# HELP %s %s" name help
      :: Printf.sprintf "# TYPE %s histogram" name
      :: List.concat_map
           (fun (v, h) ->
             Prometheus.histogram_samples ~labels:[ (label, v) ] name h)
           series
  in
  family "cqa_workload_branch_seconds" "branch" "Request latency per plan branch."
    (List.map (fun (name, c) -> (name, c.c_hist)) (centers t))
  @ family "cqa_workload_phase_seconds" "phase"
      "Per-request phase time by cost center."
      (Hashtbl.fold (fun p h acc -> (p, h) :: acc) t.phase_hist []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* JSON -------------------------------------------------------------- *)

let json_num v = Printf.sprintf "%.9g" v

(* The members of a JSON object, without the braces. *)
let json_members render kvs =
  String.concat ","
    (List.map (fun (k, v) -> Export.json_string k ^ ":" ^ render v) kvs)

let json_entry e =
  let mean = Registry.hist_mean e.latency in
  let phases = json_members json_num e.phase_s in
  let counters = json_members string_of_int e.counters in
  Printf.sprintf
    "{\"fingerprint\":%s,\"branch\":%s,\"calls\":%d,\"errors\":%d,\"wall_s\":%s,\"mean_s\":%s,\"p50_s\":%s,\"p95_s\":%s,\"max_s\":%s,\"cache_hits\":%d,\"cache_misses\":%d,\"rows\":%d,\"phases\":{%s},\"counters\":{%s}}"
    (Export.json_string e.fingerprint)
    (Export.json_string e.branch)
    e.calls e.errors (json_num e.wall_s) (json_num mean)
    (json_num (quantile e 0.50))
    (json_num (quantile e 0.95))
    (json_num e.max_s) e.cache_hits e.cache_misses e.rows phases counters

let json_center total (name, c) =
  let wall = Registry.hist_sum c.c_hist in
  let share = if total > 0.0 then wall /. total else 0.0 in
  Printf.sprintf
    "{\"branch\":%s,\"calls\":%d,\"errors\":%d,\"wall_s\":%s,\"share\":%s,\"p95_s\":%s,\"phases\":{%s}}"
    (Export.json_string name)
    (Registry.hist_count c.c_hist)
    c.c_errors (json_num wall) (json_num share)
    (json_num (Registry.quantile c.c_hist 0.95))
    (json_members json_num c.c_phase_s)

let to_json t =
  Printf.sprintf
    "{\"capacity\":%d,\"recorded\":%d,\"evicted\":%d,\"total_wall_s\":%s,\"attributed_wall_s\":%s,\"entries\":[%s],\"branches\":[%s]}"
    t.capacity t.recorded t.evicted (json_num t.total_wall_s)
    (json_num (attributed_s t))
    (String.concat "," (List.map json_entry (entries t)))
    (String.concat "," (List.map (json_center t.total_wall_s) (centers t)))
