module Tid = Relational.Tid
module Value = Relational.Value
module Cq = Logic.Cq
module Plan = Relational.Plan
module Columnar = Relational.Columnar

module Tidset_set = Set.Make (Tid.Set)

module Rows = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* Candidate answers of [q] on the (inconsistent) instance, each with
   the distinct tid sets of its witnesses — the body matches that
   produce the answer — read off the compiled body with one [#tid<i>]
   column per atom.  An answer row is in a given repair iff one of its
   witness tid sets survives there, so the witness sets are all the
   query layer needs. *)
let answers_with_witnesses (q : Cq.t) inst =
  let plan, find = Cq.compile_body ~tids:true q.body q.comps in
  let tid_cols = List.mapi (fun i _ -> Printf.sprintf "#tid%d" i) q.body in
  let table =
    Plan.run inst
      (Plan.Project (tid_cols @ Cq.rep_cols find (Cq.head_vars q), plan))
  in
  let pos =
    List.map
      (function
        | Logic.Term.Const v -> `Const v
        | Logic.Term.Var x -> `Col (Columnar.col_index table (find x)))
      q.head
  in
  let n_tids = List.length tid_cols in
  let acc =
    List.fold_left
      (fun acc (row : Value.t array) ->
        let key = List.map (function `Const v -> v | `Col i -> row.(i)) pos in
        let tids = ref Tid.Set.empty in
        for i = 0 to n_tids - 1 do
          match row.(i) with
          | Value.Int t -> tids := Tid.Set.add (Tid.of_int t) !tids
          | _ -> assert false
        done;
        let seen =
          Option.value ~default:Tidset_set.empty (Rows.find_opt key acc)
        in
        Rows.add key (Tidset_set.add !tids seen) acc)
      Rows.empty (Columnar.rows table)
  in
  Rows.fold
    (fun row tids out -> (row, Tidset_set.elements tids) :: out)
    acc []
  |> List.rev
