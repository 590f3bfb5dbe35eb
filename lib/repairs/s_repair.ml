module Instance = Relational.Instance
module Schema = Relational.Schema
module Tid = Relational.Tid
module Fact = Relational.Fact
module Value = Relational.Value
module Ic = Constraints.Ic
module Violation = Constraints.Violation
module Conflict_graph = Constraints.Conflict_graph

exception Out_of_fuel

(* Search effort counters: candidates is branch nodes visited (one per
   database extended during branching search, or per hitting set in the
   hypergraph engine), conflicts is violations materialised, pruned is
   dead-end branches (a violation with no admissible fix). *)
let c_enumerations = Obs.Counter.make "repairs.enumerations"
let c_candidates = Obs.Counter.make "repairs.candidates"
let c_conflicts = Obs.Counter.make "repairs.conflicts"
let c_pruned = Obs.Counter.make "repairs.pruned"
let c_found = Obs.Counter.make "repairs.found"

let denial_only ics = List.for_all Ic.is_denial_class ics

(* Denial-class engine: minimal deletion sets = minimal hitting sets of the
   conflict hypergraph.  The hypergraph decomposes into connected
   components whose minimal hitting sets compose by cross-product union
   (components share no vertex, and minimality is preserved componentwise);
   components are solved with [Par.map], as is the materialisation of the
   repairs themselves. *)
let via_hypergraph inst schema ics =
  let g = Conflict_graph.build_cached inst schema ics in
  let edges = Conflict_graph.edges_as_int_lists g in
  Obs.Counter.add c_conflicts (List.length edges);
  let hitting_sets =
    if List.exists (( = ) []) edges then []
    else
      let per_component =
        Par.map Sat.Hitting_set.minimal (Sat.Hitting_set.components edges)
      in
      List.fold_left
        (fun acc hss ->
          List.concat_map
            (fun a ->
              Obs.Progress.tick ();
              List.map (fun h -> a @ h) hss)
            acc)
        [ [] ] per_component
  in
  Obs.Counter.add c_candidates (List.length hitting_sets);
  Par.map
    (fun hs ->
      Obs.Progress.tick ();
      let doomed = List.fold_left (fun s i -> Tid.Set.add (Tid.of_int i) s) Tid.Set.empty hs in
      let keep = Tid.Set.diff (Instance.tids inst) doomed in
      Repair.make ~original:inst (Instance.restrict inst keep))
    hitting_sets

type fix = Delete of Tid.t | Insert of Fact.t

let ind_missing_fact schema (i : Ic.ind) (row : Value.t array) =
  let sup_rel, sup_ps = i.Ic.sup and _, sub_ps = i.Ic.sub in
  let pairs = List.combine sub_ps sup_ps in
  let args =
    List.init (Schema.arity schema sup_rel) (fun q ->
        match List.find_opt (fun (_, q') -> q' = q) pairs with
        | Some (p, _) -> row.(p)
        | None -> Value.Null)
  in
  Fact.make sup_rel args

(* Fixes for the first violation found, or None when consistent.  Deleting
   a tuple inserted earlier in the search is never offered: the repair that
   avoids inserting it is reached through a sibling branch, and allowing
   the deletion would let insert/delete cycles run forever. *)
let first_violation ~actions ~original_facts inst schema ics =
  let deletable tid =
    Fact.Set.mem (Instance.fact_of inst tid) original_facts
  in
  let rec go = function
    | [] -> None
    | ic :: rest -> (
        match ic with
        | Ic.Ind i -> (
            match Violation.of_ind inst i with
            | [] -> go rest
            | tid :: _ ->
                let row = (Instance.fact_of inst tid).Fact.row in
                let deletes = if deletable tid then [ Delete tid ] else [] in
                let inserts =
                  match actions with
                  | `Delete_only -> []
                  | `Delete_insert -> [ Insert (ind_missing_fact schema i row) ]
                in
                Some (deletes @ inserts))
        | _ -> (
            match Violation.of_ic inst schema ic with
            | [] -> go rest
            | w :: _ ->
                Some
                  (List.filter_map
                     (fun tid ->
                       if deletable tid then Some (Delete tid) else None)
                     (Tid.Set.elements w.Violation.tids))))
  in
  go ics

let apply_fix inst = function
  | Delete tid -> Instance.delete inst tid
  | Insert f -> Instance.add inst f

let branching_search ~actions ~fuel inst schema ics =
  let budget = ref fuel in
  let seen = Hashtbl.create 64 in
  let results = ref [] in
  let original_facts = Instance.facts inst in
  let rec go db =
    decr budget;
    if !budget < 0 then raise Out_of_fuel;
    Obs.Counter.incr c_candidates;
    Obs.Progress.tick ();
    match first_violation ~actions ~original_facts db schema ics with
    | None ->
        let key = Fact.Set.elements (Instance.facts db) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          results := db :: !results
        end
    | Some [] ->
        (* dead end: violation with no admissible fix *)
        Obs.Counter.incr c_pruned
    | Some fixes ->
        Obs.Counter.incr c_conflicts;
        List.iter (fun fix -> go (apply_fix db fix)) fixes
  in
  go inst;
  List.map (fun db -> Repair.make ~original:inst db) !results
  |> Repair.minimal_under_inclusion

let enumerate ?(actions = `Delete_insert) ?(fuel = 100_000) inst schema ics =
  let sp = Obs.Trace.start_phase "repairs.enumerate" in
  Obs.Counter.incr c_enumerations;
  let strategy = if denial_only ics then "hypergraph" else "branching" in
  match
    if denial_only ics then via_hypergraph inst schema ics
    else branching_search ~actions ~fuel inst schema ics
  with
  | repairs ->
      Obs.Counter.add c_found (List.length repairs);
      if Obs.Trace.is_enabled () then begin
        Obs.Trace.attr "strategy" strategy;
        Obs.Trace.attr_int "repairs" (List.length repairs)
      end;
      Obs.Trace.finish sp;
      List.sort Repair.compare_by_delta repairs
  | exception e ->
      Obs.Trace.finish sp;
      raise e

(* Greedy maximal independent set for denial-class constraints: start from
   the conflict-free tuples and add back conflicting ones while the result
   stays consistent. *)
let one_greedy inst schema ics =
  let g = Conflict_graph.build_cached inst schema ics in
  let conflicting = Conflict_graph.conflicting_tids g in
  let consistent db = Violation.is_consistent db schema ics in
  let base =
    Instance.restrict inst (Tid.Set.diff (Instance.tids inst) conflicting)
  in
  if not (consistent base) then None
  else
    let repaired =
      Tid.Set.fold
        (fun tid db ->
          let db' = Instance.add db (Instance.fact_of inst tid) in
          if consistent db' then db' else db)
        conflicting base
    in
    Some (Repair.make ~original:inst repaired)

let one ?(actions = `Delete_insert) ?fuel inst schema ics =
  if denial_only ics then one_greedy inst schema ics
  else
    match enumerate ~actions ?fuel inst schema ics with
    | [] -> None
    | r :: _ -> Some r

let count ?actions ?fuel inst schema ics =
  List.length (enumerate ?actions ?fuel inst schema ics)
