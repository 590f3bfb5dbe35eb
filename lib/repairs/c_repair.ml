module Instance = Relational.Instance
module Tid = Relational.Tid
module Ic = Constraints.Ic
module Conflict_graph = Constraints.Conflict_graph

let denial_only = List.for_all Ic.is_denial_class

let c_requests = Obs.Counter.make "repairs.c_requests"

let hypergraph_minimum inst schema ics =
  let g = Conflict_graph.build_cached inst schema ics in
  Sat.Hitting_set.minimum (Conflict_graph.edges_as_int_lists g)

let repair_of_deletion inst hs =
  let doomed =
    List.fold_left (fun s i -> Tid.Set.add (Tid.of_int i) s) Tid.Set.empty hs
  in
  let keep = Tid.Set.diff (Instance.tids inst) doomed in
  Repair.make ~original:inst (Instance.restrict inst keep)

let minimum_cost ?actions ?fuel inst schema ics =
  if denial_only ics then
    Option.map List.length (hypergraph_minimum inst schema ics)
  else
    match S_repair.enumerate ?actions ?fuel inst schema ics with
    | [] -> None
    | repairs ->
        Some (List.fold_left (fun m r -> min m (Repair.cost r)) max_int repairs)

let one ?actions ?fuel inst schema ics =
  if denial_only ics then
    Option.map (repair_of_deletion inst) (hypergraph_minimum inst schema ics)
  else
    match S_repair.enumerate ?actions ?fuel inst schema ics with
    | [] -> None
    | repairs ->
        let best =
          List.fold_left
            (fun best r ->
              match best with
              | Some b when Repair.cost b <= Repair.cost r -> best
              | _ -> Some r)
            None repairs
        in
        best

let enumerate ?actions ?fuel inst schema ics =
  let sp = Obs.Trace.start_phase "repairs.c_enumerate" in
  Obs.Counter.incr c_requests;
  match
    match minimum_cost ?actions ?fuel inst schema ics with
    | None -> []
    | Some k ->
        List.filter
          (fun r -> Repair.cost r = k)
          (S_repair.enumerate ?actions ?fuel inst schema ics)
  with
  | repairs ->
      if Obs.Trace.is_enabled () then
        Obs.Trace.attr_int "repairs" (List.length repairs);
      Obs.Trace.finish sp;
      repairs
  | exception e ->
      Obs.Trace.finish sp;
      raise e

let count ?actions ?fuel inst schema ics =
  List.length (enumerate ?actions ?fuel inst schema ics)
