module Schema = Relational.Schema
module Instance = Relational.Instance
module Fact = Relational.Fact
module Value = Relational.Value
module Term = Logic.Term
module Atom = Logic.Atom
module Cq = Logic.Cq
module Binding = Logic.Binding

type st_tgd = { body : Cq.t; head : Atom.t list }

type egd = { egd_body : Atom.t list; left : string; right : string }

type setting = {
  source_schema : Schema.t;
  target_schema : Schema.t;
  st_tgds : st_tgd list;
  egds : egd list;
  target_ics : Constraints.Ic.t list;
}

let st_tgd ~body ~head = { body; head }
let egd ~body left right = { egd_body = body; left; right }

let null_prefix = "\xe2\x8a\xa5" (* ⊥ *)

let is_labeled_null = function
  | Value.Str s -> String.length s >= 3 && String.sub s 0 3 = null_prefix
  | _ -> false

type chase_result = Solution of Instance.t | Failed of string

(* Fire every st-tgd once per body match; existential head variables get a
   fresh labeled null per (tgd, match). *)
let fire_tgds setting source =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Value.Str (Printf.sprintf "%s%d" null_prefix !counter)
  in
  List.fold_left
    (fun target (tgd : st_tgd) ->
      List.fold_left
        (fun target env ->
          let locals = Hashtbl.create 4 in
          let value_of = function
            | Term.Const c -> c
            | Term.Var v -> (
                match Binding.find env v with
                | Some value -> value
                | None -> (
                    match Hashtbl.find_opt locals v with
                    | Some n -> n
                    | None ->
                        let n = fresh () in
                        Hashtbl.replace locals v n;
                        n))
          in
          List.fold_left
            (fun target (a : Atom.t) ->
              Instance.add target (Fact.make a.rel (List.map value_of a.args)))
            target tgd.head)
        target
        (Cq.bindings tgd.body source))
    (Instance.create setting.target_schema)
    setting.st_tgds

(* Structural matching for the egd chase: labeled nulls are named constants
   and join with themselves. *)
module Env = Map.Make (String)

let match_structural env (a : Atom.t) (row : Value.t array) =
  if List.length a.args <> Array.length row then None
  else
    let rec go env i = function
      | [] -> Some env
      | t :: rest -> (
          let v = row.(i) in
          match t with
          | Term.Const c -> if Value.equal c v then go env (i + 1) rest else None
          | Term.Var x -> (
              match Env.find_opt x env with
              | Some bound ->
                  if Value.equal bound v then go env (i + 1) rest else None
              | None -> go (Env.add x v env) (i + 1) rest))
    in
    go env 0 a.args

(* Find one egd application: a body match where left ≠ right. *)
let find_egd_conflict target (e : egd) =
  let exception Found of Value.t * Value.t in
  let rec search env = function
    | [] -> (
        match Env.find_opt e.left env, Env.find_opt e.right env with
        | Some l, Some r when not (Value.equal l r) -> raise (Found (l, r))
        | _ -> ())
    | (a : Atom.t) :: rest ->
        List.iter
          (fun (_tid, row) ->
            match match_structural env a row with
            | Some env' -> search env' rest
            | None -> ())
          (Instance.tuples target ~rel:a.rel)
  in
  try
    search Env.empty e.egd_body;
    None
  with Found (l, r) -> Some (l, r)

let substitute_value target ~from ~into =
  Instance.fold_facts
    (fun _tid (f : Fact.t) acc ->
      let row =
        Array.map (fun v -> if Value.equal v from then into else v) f.row
      in
      Instance.add acc (Fact.make f.rel (Array.to_list row)))
    target
    (Instance.create (Instance.schema target))

let rec egd_chase setting target =
  let conflict =
    List.find_map (fun e -> find_egd_conflict target e) setting.egds
  in
  match conflict with
  | None -> Solution target
  | Some (l, r) ->
      if is_labeled_null l then
        egd_chase setting (substitute_value target ~from:l ~into:r)
      else if is_labeled_null r then
        egd_chase setting (substitute_value target ~from:r ~into:l)
      else
        Failed
          (Format.asprintf "egd equates distinct constants %a and %a" Value.pp
             l Value.pp r)

let chase setting source =
  let target = fire_tgds setting source in
  match egd_chase setting target with
  | Failed _ as f -> f
  | Solution target ->
      if
        Constraints.Violation.is_consistent target setting.target_schema
          setting.target_ics
      then Solution target
      else Failed "target constraints violated by the exchanged data"

let certain_answers setting source q =
  match chase setting source with
  | Failed reason -> failwith ("Exchange.certain_answers: chase failed: " ^ reason)
  | Solution target ->
      List.filter
        (fun row -> not (List.exists is_labeled_null row))
        (Cq.answers q target)

let rec subsets_of_size k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
      if k = 0 then [ [] ]
      else
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest

let exchange_repairs ?(max_deletions = 4) setting source =
  let facts = Instance.fact_list source in
  let found = ref [] in
  let is_superset_of_found subset =
    List.exists
      (fun smaller -> List.for_all (fun f -> List.mem f subset) smaller)
      !found
  in
  let results = ref [] in
  (try
     for k = 0 to min max_deletions (List.length facts) do
       List.iter
         (fun subset ->
           if not (is_superset_of_found subset) then begin
             let candidate =
               List.fold_left Instance.delete_fact source subset
             in
             match chase setting candidate with
             | Solution target ->
                 found := subset :: !found;
                 results := (candidate, target) :: !results
             | Failed _ -> ()
           end)
         (subsets_of_size k facts);
       (* All minimal repairs found at sizes ≤ k; stop once any exist and
          the next size would only yield supersets... supersets are pruned
          anyway, but distinct minimal repairs can share no inclusion, so
          keep scanning all sizes up to the bound. *)
       ignore k
     done
   with Exit -> ());
  List.rev !results

module Rows = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let exchange_repair_certain_answers ?max_deletions setting source q =
  match exchange_repairs ?max_deletions setting source with
  | [] -> []
  | repairs ->
      let answer_sets =
        List.map
          (fun (_src, target) ->
            Rows.of_list
              (List.filter
                 (fun row -> not (List.exists is_labeled_null row))
                 (Cq.answers q target)))
          repairs
      in
      match answer_sets with
      | [] -> []
      | first :: rest -> Rows.elements (List.fold_left Rows.inter first rest)
