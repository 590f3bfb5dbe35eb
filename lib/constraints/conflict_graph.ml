module Tid = Relational.Tid
module Instance = Relational.Instance

type t = { vertices : Tid.Set.t; edges : Tid.Set.t list }

let build inst schema ics =
  List.iter
    (fun ic ->
      if not (Ic.is_denial_class ic) then
        invalid_arg
          (Printf.sprintf
             "Conflict_graph.build: %s is not a denial-class constraint"
             (Ic.name ic)))
    ics;
  Obs.Trace.with_span "conflict_graph.build" @@ fun () ->
  (* The violating tid sets of every denial, deduplicated by one sort in
     [Set.compare] order: edge order, and so the SAT theory's variable
     numbering, are those of a [Set.Make (Tid.Set)] of the edges. *)
  let edges =
    List.concat_map
      (fun ic ->
        List.concat_map (Violation.tid_sets inst)
          (Option.get (Ic.to_denials schema ic)))
      ics
    |> List.sort_uniq Tid.Sorted.compare
  in
  Obs.Trace.attr_int "edges" (List.length edges);
  { vertices = Instance.tids inst; edges = List.map Tid.Sorted.to_set edges }

(* ------------------------------------------------------------------ *)
(* Cached builds.

   Repair enumeration, C-repair search and repair checking all need the
   conflict graph of the *same* instance; a small bounded memo keyed by
   (instance digest, constraint {!fingerprint}) lets them share one build.
   The digest is a hash, so a hit is only trusted after verifying the
   cached instance: first by physical equality (the overwhelmingly common
   case — the same [Instance.t] value flowing through one pipeline), then
   by [Instance.equal].  Protected by a mutex: Par workers may check
   repairs concurrently. *)

let c_cache_hits = Obs.Counter.make "conflict_graph.cache_hits"
let c_cache_misses = Obs.Counter.make "conflict_graph.cache_misses"

let cache_capacity = 8
let cache : (int * string * Instance.t * t) list ref = ref []
let cache_lock = Mutex.create ()

(* Constraints are plain data whose constants are [Value.t]s, so their
   no-sharing marshalled form is injective; [Ic.pp] is not (it prints 1
   and "1" alike, and a CFD without its pattern). *)
let fingerprint (ics : Ic.t list) = Marshal.to_string ics [ No_sharing ]

let build_cached inst schema ics =
  let key = Instance.digest inst in
  let fp = fingerprint ics in
  let hit =
    Mutex.lock cache_lock;
    let found =
      List.find_opt
        (fun (k, f, cached_inst, _) ->
          k = key && String.equal f fp
          && (cached_inst == inst || Instance.equal_with_tids cached_inst inst))
        !cache
    in
    Mutex.unlock cache_lock;
    found
  in
  match hit with
  | Some (_, _, _, g) ->
      Obs.Counter.incr c_cache_hits;
      g
  | None ->
      Obs.Counter.incr c_cache_misses;
      let g = build inst schema ics in
      Mutex.lock cache_lock;
      cache :=
        (key, fp, inst, g)
        :: (if List.length !cache >= cache_capacity then
              List.filteri (fun i _ -> i < cache_capacity - 1) !cache
            else !cache);
      Mutex.unlock cache_lock;
      g

let edges_as_int_lists t =
  List.map
    (fun e -> List.map Tid.to_int (Tid.Set.elements e))
    t.edges

let degree t tid =
  List.length (List.filter (fun e -> Tid.Set.mem tid e) t.edges)

let conflicting_tids t = Tid.Set.of_list (List.concat_map Tid.Set.elements t.edges)

let is_independent t set =
  not (List.exists (fun e -> Tid.Set.subset e set) t.edges)

let pp ppf t =
  Format.fprintf ppf "vertices: {%a}@,edges:@,%a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Tid.pp)
    (Tid.Set.elements t.vertices)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf e ->
         Format.fprintf ppf "  {%a}"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
              Tid.pp)
           (Tid.Set.elements e)))
    t.edges
