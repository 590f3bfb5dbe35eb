module Instance = Relational.Instance
module Tid = Relational.Tid
module Fact = Relational.Fact
module Value = Relational.Value
module Plan = Relational.Plan
module Columnar = Relational.Columnar
module Ic = Constraints.Ic
module Cq = Logic.Cq

module Edge_set = Set.Make (Tid.Set)

type t = {
  inst : Instance.t;
  schema : Relational.Schema.t;
  ics : Ic.t list;
  denials : Ic.denial list;
  edges : Edge_set.t;
}

let graph t =
  {
    Constraints.Conflict_graph.vertices = Instance.tids t.inst;
    edges = Edge_set.elements t.edges;
  }

let instance t = t.inst
let is_consistent t = Edge_set.is_empty t.edges

let create inst schema ics =
  let denials =
    List.concat_map
      (fun ic ->
        match Ic.to_denials schema ic with
        | Some ds -> ds
        | None ->
            invalid_arg
              (Printf.sprintf "Incremental.create: %s is not denial-class"
                 (Ic.name ic)))
      ics
  in
  let edges =
    List.fold_left
      (fun acc (w : Constraints.Violation.witness) -> Edge_set.add w.tids acc)
      Edge_set.empty
      (Constraints.Violation.all inst schema ics)
  in
  { inst; schema; ics; denials; edges }

(* Violation edges of one denial that involve the pinned tuple: the
   compiled denial body, kept where some atom over the tuple's relation
   matched exactly that tuple. *)
let witnesses_pinned inst (d : Ic.denial) ~tid ~rel =
  let plan, _ = Cq.compile_body ~tids:true d.atoms d.comps in
  let tid_cols = List.init (List.length d.atoms) Cq.tid_col in
  let pinned = Plan.Const (Value.int (Tid.to_int tid)) in
  let pins =
    List.filter_map
      (fun ((a : Logic.Atom.t), col) ->
        if String.equal a.rel rel then
          Some { Plan.op = Plan.Eq; left = Plan.Col col; right = pinned }
        else None)
      (List.combine d.atoms tid_cols)
  in
  let table =
    Plan.run inst (Plan.Project (tid_cols, Plan.Filter (Plan.Any pins, plan)))
  in
  List.map
    (Array.fold_left
       (fun tids v ->
         match v with
         | Value.Int t -> Tid.Set.add (Tid.of_int t) tids
         | _ -> assert false)
       Tid.Set.empty)
    (Columnar.rows table)

let insert t fact =
  let inst', tid = Instance.insert t.inst fact in
  if inst' == t.inst then (t, tid)
  else
    let new_edges =
      List.concat_map
        (fun (d : Ic.denial) ->
          if
            List.exists
              (fun (a : Logic.Atom.t) -> String.equal a.rel fact.Fact.rel)
              d.atoms
          then witnesses_pinned inst' d ~tid ~rel:fact.Fact.rel
          else [])
        t.denials
    in
    let edges =
      List.fold_left (fun acc e -> Edge_set.add e acc) t.edges new_edges
    in
    ({ t with inst = inst'; edges }, tid)

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
