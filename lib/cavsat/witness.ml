module Tid = Relational.Tid
module Value = Relational.Value
module Cq = Logic.Cq
module Plan = Relational.Plan
module Columnar = Relational.Columnar
module Column = Relational.Column

module Rows = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* Candidate answers of [q] on the (inconsistent) instance, each with
   the distinct tid sets of its witnesses — the body matches that
   produce the answer — read off the compiled body with one [#tid<i>]
   column per atom.  An answer row is in a given repair iff one of its
   witness tid sets survives there, so the witness sets are all the
   query layer needs.  Only the head columns are decoded to values; the
   tids stay integers until they become sorted arrays. *)
let answers_with_witnesses (q : Cq.t) inst =
  let plan, find = Cq.compile_body ~tids:true q.body q.comps in
  let n_tids = List.length q.body in
  let table =
    Plan.run inst
      (Plan.Project
         ( List.init n_tids Cq.tid_col @ Cq.rep_cols find (Cq.head_vars q),
           plan ))
  in
  let tid_cols = Cq.tid_columns table n_tids in
  let head =
    List.map
      (function
        | Logic.Term.Const v -> Fun.const v
        | Logic.Term.Var x -> Column.getter (Columnar.column table (find x)))
      q.head
  in
  let acc = ref Rows.empty in
  for r = 0 to Columnar.length table - 1 do
    let key = List.map (fun get -> get r) head in
    let w = Tid.Sorted.of_columns tid_cols r in
    match Rows.find_opt key !acc with
    | Some ws -> ws := w :: !ws
    | None -> acc := Rows.add key (ref [ w ]) !acc
  done;
  Rows.fold
    (fun row ws out -> (row, List.sort_uniq Tid.Sorted.compare !ws) :: out)
    !acc []
  |> List.rev
