module Instance = Relational.Instance
module Tid = Relational.Tid
module Value = Relational.Value
module Tvl = Relational.Tvl
module Binding = Logic.Binding
module Cq = Logic.Cq

module Tidset_set = Set.Make (Tid.Set)

module Rows = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* Candidate answers of [q] on the (inconsistent) instance, each with
   the distinct tid sets of its witnesses — the body matches that
   produce the answer.  The search mirrors Violation.of_denial: bind
   atoms left to right against bucketed candidate rows, checking
   comparisons as soon as their variables are bound.  An answer row is
   in a given repair iff one of its witness tid sets survives there, so
   the witness sets are all the query layer needs. *)
let answers_with_witnesses (q : Cq.t) inst =
  let cmp_ready env c = List.for_all (Binding.mem env) (Logic.Cmp.vars c) in
  let acc = ref Rows.empty in
  let record env tids =
    match
      List.fold_left
        (fun row t ->
          match row with
          | None -> None
          | Some row -> (
              match Binding.term_value env t with
              | Some v -> Some (v :: row)
              | None -> None))
        (Some []) q.Cq.head
    with
    | None ->
        (* Same contract as [Cq.answers]: an unsafe query has no answers
           to certify. *)
        invalid_arg
          (Printf.sprintf "Cavsat.Witness: unsafe head variable in %s"
             q.Cq.name)
    | Some rev_row ->
        let row = List.rev rev_row in
        let seen = Option.value ~default:Tidset_set.empty (Rows.find_opt row !acc) in
        acc := Rows.add row (Tidset_set.add tids seen) !acc
  in
  let rec search env matched atoms comps =
    let ready, pending = List.partition (cmp_ready env) comps in
    if List.for_all (fun c -> Tvl.to_bool (Binding.eval_cmp env c)) ready then
      match atoms with
      | [] -> if pending = [] then record env matched
      | a :: rest ->
          List.iter
            (fun (tid, row) ->
              match Cq.match_row env a row with
              | Some env' -> search env' (Tid.Set.add tid matched) rest pending
              | None -> ())
            (Instance.matching_tuples inst ~rel:a.Logic.Atom.rel
               ~bound:(Cq.bound_pattern env a pending))
    else ()
  in
  search Binding.empty Tid.Set.empty q.Cq.body q.Cq.comps;
  Rows.fold
    (fun row tids out -> (row, Tidset_set.elements tids) :: out)
    !acc []
  |> List.rev
