module Tid = Relational.Tid
module Instance = Relational.Instance

type t = { vertices : Tid.Set.t; edges : Tid.Set.t list }

let check_denial_class ics =
  List.iter
    (fun ic ->
      if not (Ic.is_denial_class ic) then
        invalid_arg
          (Printf.sprintf
             "Conflict_graph.build: %s is not a denial-class constraint"
             (Ic.name ic)))
    ics

(* The violating tid sets of every constraint — key and FD pairs by
   grouping, other denials by their compiled bodies — deduplicated by
   one sort in [Set.compare] order: edge order, and so the SAT theory's
   variable numbering, are those of a [Set.Make (Tid.Set)] of the
   edges.  [pinned] restricts every source to the matches containing
   one tuple. *)
let edges ?pinned inst schema ics =
  List.concat_map
    (fun ic ->
      match Ic.as_fd schema ic with
      | Some f ->
          let pairs = ref [] in
          Violation.fd_conflicts ?pinned inst f (fun lo hi _ ->
              pairs := [| lo; hi |] :: !pairs);
          !pairs
      | None ->
          List.concat_map (Violation.tid_sets ?pinned inst)
            (Option.get (Ic.to_denials schema ic)))
    ics
  |> List.sort_uniq Tid.Sorted.compare

let sorted_edges inst schema ics =
  check_denial_class ics;
  edges inst schema ics

(* A key or FD over another relation cannot hold the tuple: it is
   skipped before its view is read. *)
let edges_with inst schema ics tid =
  check_denial_class ics;
  match Instance.find_fact inst tid with
  | None -> []
  | Some fact ->
      let touches ic =
        match Ic.as_fd schema ic with
        | Some f -> String.equal f.Ic.rel fact.Relational.Fact.rel
        | None -> true
      in
      edges ~pinned:tid inst schema (List.filter touches ics)

let build inst schema ics =
  Obs.Trace.with_span "conflict_graph.build" @@ fun () ->
  let edges = sorted_edges inst schema ics in
  Obs.Trace.attr_int "edges" (List.length edges);
  { vertices = Instance.tids inst; edges = List.map Tid.Sorted.to_set edges }

(* Cached builds: repair enumeration, C-repair search and repair
   checking all need the conflict graph of the *same* instance, so they
   share one build through a {!Memo}.  Par workers may check repairs
   concurrently; the memo is domain-safe. *)

let cache =
  Memo.create
    ~hits:(Obs.Counter.make "conflict_graph.cache_hits")
    ~misses:(Obs.Counter.make "conflict_graph.cache_misses")
    ()

let build_cached inst schema ics =
  Memo.find_or_build cache inst ics (fun () -> build inst schema ics)

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
