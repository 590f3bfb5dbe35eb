module Fact = Relational.Fact
module Value = Relational.Value

let brave_facts program edb =
  List.fold_left Fact.Set.union Fact.Set.empty (Stable.models program edb)

let cautious_facts program edb =
  match Stable.models program edb with
  | [] -> Fact.Set.empty
  | m :: rest -> List.fold_left Fact.Set.inter m rest

let brave program edb f = Fact.Set.mem f (brave_facts program edb)
let cautious program edb f = Fact.Set.mem f (cautious_facts program edb)

let rows_of_pred pred facts =
  Fact.Set.fold
    (fun (f : Fact.t) acc ->
      if String.equal f.rel pred then Array.to_list f.row :: acc else acc)
    facts []
  |> List.sort (List.compare Value.compare)

let cautious_rows program edb ~pred = rows_of_pred pred (cautious_facts program edb)

let optimal_cautious_rows program edb ~pred =
  match Stable.optimal_models program edb with
  | [] -> []
  | (_, m) :: rest ->
      rows_of_pred pred
        (List.fold_left (fun acc (_, m') -> Fact.Set.inter acc m') m rest)
