(* The CAvSAT repair theory as it was built through the conflict graph:
   [Tid.Set] edges from [Conflict_graph.build_cached], a [Hashtbl] from
   tids to variables and a [Hashtbl] of per-tuple edge lists.  Kept
   verbatim (less the counters and the solver lock) as the test oracle
   [Cavsat.Theory.build] is checked against clause for clause, as
   [Ra] is for the columnar executor — with one change, marked below:
   the maximality-clause dedup of the original also registered clauses
   carrying aux literals, which dropped a needed clause (see the
   "maximality clause behind a wide edge" case in test_cavsat.ml). *)

module Tid = Relational.Tid
module Conflict_graph = Constraints.Conflict_graph

type t = {
  solver : Sat.Dpll.t;
  var_of_tid : (int, int) Hashtbl.t;
  no_repairs : bool;
  base : Cavsat.Theory.stats;
}

let var_for t tid = Hashtbl.find_opt t.var_of_tid (Tid.to_int tid)

let build inst schema ics =
  let graph = Conflict_graph.build_cached inst schema ics in
  let conflicting = Conflict_graph.conflicting_tids graph in
  let no_repairs = List.exists Tid.Set.is_empty graph.Conflict_graph.edges in
  let solver = Sat.Dpll.create () in
  let var_of_tid = Hashtbl.create 64 in
  Tid.Set.iter
    (fun tid ->
      Hashtbl.replace var_of_tid (Tid.to_int tid)
        (Sat.Dpll.fresh_var solver))
    conflicting;
  let var tid = Hashtbl.find var_of_tid (Tid.to_int tid) in
  let edges_of = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Tid.Set.iter
        (fun tid ->
          let k = Tid.to_int tid in
          Hashtbl.replace edges_of k
            (e :: Option.value ~default:[] (Hashtbl.find_opt edges_of k)))
        e)
    graph.Conflict_graph.edges;
  if not no_repairs then begin
    (* Independence clauses. *)
    List.iter
      (fun e ->
        Sat.Dpll.add_clause_list solver
          (List.map (fun tid -> -var tid) (Tid.Set.elements e)))
      graph.Conflict_graph.edges;
    (* Maximality clauses, deduplicated by literal set: the two tuples
       of a binary edge would otherwise each emit the same at-least-one
       clause. *)
    let seen_max = Hashtbl.create 64 in
    Tid.Set.iter
      (fun tid ->
        let edges = Option.value ~default:[] (Hashtbl.find_opt edges_of (Tid.to_int tid)) in
        if not (List.exists (fun e -> Tid.Set.cardinal e = 1) edges) then begin
          let binary, wide =
            List.partition (fun e -> Tid.Set.cardinal e = 2) edges
          in
          let direct =
            List.map (fun e -> var (Tid.Set.min_elt (Tid.Set.remove tid e))) binary
          in
          let clause_key =
            List.sort_uniq Int.compare (var tid :: direct)
          in
          if wide <> [] || not (Hashtbl.mem seen_max clause_key) then begin
            (* Changed: only an aux-free clause is registered (the
               original registered every key). *)
            if wide = [] then Hashtbl.replace seen_max clause_key ();
            let aux_lits =
              List.map
                (fun e ->
                  let aux = Sat.Dpll.fresh_var solver in
                  Tid.Set.iter
                    (fun o ->
                      Sat.Dpll.add_clause solver [| -aux; var o |])
                    (Tid.Set.remove tid e);
                  aux)
                wide
            in
            Sat.Dpll.add_clause_list solver
              (var tid :: List.sort_uniq Int.compare direct @ aux_lits)
          end
        end)
      conflicting;
    (* Self-violating tuples are in no repair. *)
    List.iter
      (fun e ->
        match Tid.Set.elements e with
        | [ t ] -> Sat.Dpll.add_clause solver [| -var t |]
        | _ -> ())
      graph.Conflict_graph.edges
  end;
  let base =
    {
      Cavsat.Theory.vars = Sat.Dpll.nvars solver;
      clauses = Sat.Dpll.nclauses solver;
      conflict_edges = List.length graph.Conflict_graph.edges;
    }
  in
  { solver; var_of_tid; no_repairs; base }
