module Instance = Relational.Instance
module Fact = Relational.Fact

type actions = [ `Delete_only | `Delete_insert ]

type t = {
  original : Instance.t;
  repaired : Instance.t;
  deleted : Fact.Set.t;
  inserted : Fact.Set.t;
}

let make ~original repaired =
  let of_ = Instance.facts original and rf = Instance.facts repaired in
  {
    original;
    repaired;
    deleted = Fact.Set.diff of_ rf;
    inserted = Fact.Set.diff rf of_;
  }

let delta t = Fact.Set.union t.deleted t.inserted
let cost t = Fact.Set.cardinal t.deleted + Fact.Set.cardinal t.inserted
let equal a b = Fact.Set.equal (delta a) (delta b)

let compare_by_delta a b = Fact.Set.compare (delta a) (delta b)

let minimal_under_inclusion repairs =
  List.filter
    (fun r ->
      let d = delta r in
      not
        (List.exists
           (fun r' ->
             let d' = delta r' in
             Fact.Set.subset d' d && not (Fact.Set.equal d' d))
           repairs))
    repairs

let pp ppf t =
  Format.fprintf ppf "@[<v>deleted: %a@,inserted: %a@]" Fact.set_pp t.deleted
    Fact.set_pp t.inserted
