type t = { name : string; disjuncts : Cq.t list }

let make ?(name = "Q") disjuncts =
  match disjuncts with
  | [] -> invalid_arg "Ucq.make: empty union"
  | q :: rest ->
      let n = Cq.arity q in
      List.iter
        (fun q' ->
          if Cq.arity q' <> n then invalid_arg "Ucq.make: arity mismatch")
        rest;
      { name; disjuncts }

let of_cq q = { name = q.Cq.name; disjuncts = [ q ] }
let arity u = Cq.arity (List.hd u.disjuncts)

module Row_set = Set.Make (struct
  type t = Relational.Value.t list

  let compare = List.compare Relational.Value.compare
end)

(* [Cq.answers] is already distinct and in row order. *)
let answers u inst =
  match u.disjuncts with
  | [ q ] -> Cq.answers q inst
  | qs ->
      List.fold_left
        (fun acc q ->
          List.fold_left (fun acc row -> Row_set.add row acc) acc (Cq.answers q inst))
        Row_set.empty qs
      |> Row_set.elements

let holds u inst = List.exists (fun q -> Cq.holds q inst) u.disjuncts

let pp ppf u =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ∨ ")
    Cq.pp ppf u.disjuncts
