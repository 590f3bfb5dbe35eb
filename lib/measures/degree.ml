module Instance = Relational.Instance
module Violation = Constraints.Violation
module Conflict_graph = Constraints.Conflict_graph

let drastic inst schema ics =
  if Violation.is_consistent inst schema ics then 0.0 else 1.0

let safe_ratio num den = if den = 0 then 0.0 else Float.min 1.0 (float_of_int num /. float_of_int den)

let violation_ratio inst schema ics =
  safe_ratio (Violation.count inst schema ics) (Instance.size inst)

let conflicting_tuple_ratio inst schema ics =
  let g = Conflict_graph.build inst schema ics in
  safe_ratio
    (Relational.Tid.Set.cardinal (Conflict_graph.conflicting_tids g))
    (Instance.size inst)

let repair_based inst schema ics =
  let g = Conflict_graph.build inst schema ics in
  match Sat.Hitting_set.minimum_size (Conflict_graph.edges_as_int_lists g) with
  | None -> 1.0 (* unrepairable by deletions: maximally inconsistent *)
  | Some k -> safe_ratio k (Instance.size inst)

let all inst schema ics =
  [
    ("drastic", drastic inst schema ics);
    ("violation-ratio", violation_ratio inst schema ics);
    ("conflicting-tuple-ratio", conflicting_tuple_ratio inst schema ics);
    ("repair-based", repair_based inst schema ics);
  ]
