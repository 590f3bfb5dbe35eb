module Instance = Relational.Instance
module Tid = Relational.Tid
module Ic = Constraints.Ic
module Cq = Logic.Cq
module Conflict_graph = Constraints.Conflict_graph

module Edge_set = Set.Make (Tid.Set)

type t = {
  inst : Instance.t;
  schema : Relational.Schema.t;
  ics : Ic.t list;
  edges : Edge_set.t;
}

let graph t =
  {
    Conflict_graph.vertices = Instance.tids t.inst;
    edges = Edge_set.elements t.edges;
  }

let instance t = t.inst
let is_consistent t = Edge_set.is_empty t.edges

let edge_set edges =
  Edge_set.of_list (List.map Tid.Sorted.to_set edges)

let create inst schema ics =
  { inst; schema; ics; edges = edge_set (Conflict_graph.sorted_edges inst schema ics) }

(* Only the violations holding the new tuple are new. *)
let insert t fact =
  let inst', tid = Instance.insert t.inst fact in
  if inst' == t.inst then (t, tid)
  else
    let fresh = Conflict_graph.edges_with inst' t.schema t.ics tid in
    ({ t with inst = inst'; edges = Edge_set.union t.edges (edge_set fresh) }, tid)

let delete t tid =
  {
    t with
    inst = Instance.delete t.inst tid;
    edges = Edge_set.filter (fun e -> not (Tid.Set.mem tid e)) t.edges;
  }

let s_repairs t =
  let edges =
    List.map
      (fun e -> List.map Tid.to_int (Tid.Set.elements e))
      (Edge_set.elements t.edges)
  in
  List.map
    (fun hs ->
      let doomed =
        List.fold_left (fun s i -> Tid.Set.add (Tid.of_int i) s) Tid.Set.empty hs
      in
      let keep = Tid.Set.diff (Instance.tids t.inst) doomed in
      Repair.make ~original:t.inst (Instance.restrict t.inst keep))
    (Sat.Hitting_set.minimal edges)
  |> List.sort Repair.compare_by_delta

module Rows = Set.Make (struct
  type t = Relational.Value.t list

  let compare = List.compare Relational.Value.compare
end)

let consistent_answers t q =
  match s_repairs t with
  | [] -> []
  | first :: rest ->
      let answers (r : Repair.t) = Rows.of_list (Cq.answers q r.repaired) in
      Rows.elements
        (List.fold_left
           (fun acc r -> Rows.inter acc (answers r))
           (answers first) rest)
