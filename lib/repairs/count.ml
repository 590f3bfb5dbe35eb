module Instance = Relational.Instance
module Value = Relational.Value
module Ic = Constraints.Ic
module Conflict_graph = Constraints.Conflict_graph

let key_blocks inst _schema ~rel ~key =
  let groups = Hashtbl.create 32 in
  List.iter
    (fun (_tid, row) ->
      let k = List.map (fun i -> row.(i)) key in
      (* NULL keys never conflict (SQL semantics), so they stay out of the
         blocks. *)
      if not (List.exists Value.is_null k) then
        Hashtbl.replace groups k
          (1 + Option.value ~default:0 (Hashtbl.find_opt groups k)))
    (Instance.tuples inst ~rel);
  Hashtbl.fold (fun _ n acc -> if n >= 2 then n :: acc else acc) groups []
  |> List.sort compare

exception Overflow of string

(* [a * b] for [a, b >= 1], raising [Overflow] past [max_int]. *)
let checked_mul a b =
  if a > max_int / b then
    raise
      (Overflow
         (Printf.sprintf "repair count exceeds max_int = %d (2^%d - 1)" max_int
            (Sys.int_size - 1)))
  else a * b

let closed_form_keys inst schema ics =
  let keys =
    List.filter_map (function Ic.Key (rel, ps) -> Some (rel, ps) | _ -> None) ics
  in
  let rels = List.map fst keys in
  if
    List.length keys <> List.length ics
    || List.length (List.sort_uniq String.compare rels) <> List.length rels
  then None
  else
    Some
      (List.fold_left
         (fun acc (rel, key) ->
           List.fold_left checked_mul acc (key_blocks inst schema ~rel ~key))
         1 keys)

let via_hypergraph inst schema ics =
  let g = Conflict_graph.build_cached inst schema ics in
  List.length (Sat.Hitting_set.minimal (Conflict_graph.edges_as_int_lists g))

let s_repairs inst schema ics =
  match closed_form_keys inst schema ics with
  | Some n -> n
  | None ->
      if List.for_all Ic.is_denial_class ics then via_hypergraph inst schema ics
      else S_repair.count inst schema ics

let c_repairs inst schema ics =
  match closed_form_keys inst schema ics with
  | Some n ->
      (* Every key repair deletes exactly (block size - 1) per block, so all
         S-repairs share the minimum cardinality. *)
      n
  | None ->
      if List.for_all Ic.is_denial_class ics then
        let g = Conflict_graph.build_cached inst schema ics in
        List.length
          (Sat.Hitting_set.minimum_all (Conflict_graph.edges_as_int_lists g))
      else C_repair.count inst schema ics
