(* A naive row-at-a-time relational algebra over named column sets: the
   test oracle the columnar [Relational.Plan] kernels and every compiled
   conjunctive body are checked against.  Conditions are evaluated in
   three-valued logic; a row is selected only when the condition is
   definitely true, matching SQL's treatment of NULL.  Joins are nested
   loops, so the oracle shares no index or hashing logic with the code
   under test. *)

module Value = Relational.Value
module Tvl = Relational.Tvl
module Schema = Relational.Schema
module Instance = Relational.Instance
module Columnar = Relational.Columnar

type rel = { cols : string array; rows : Value.t array list }

let of_instance inst name =
  let r = Schema.relation (Instance.schema inst) name in
  { cols = Array.copy r.Schema.attributes; rows = Instance.rows inst ~rel:name }

let col_named ~op r name =
  let n = Array.length r.cols in
  let rec go i =
    if i >= n then Columnar.unknown_column ~op name r.cols
    else if String.equal r.cols.(i) name then i
    else go (i + 1)
  in
  go 0

let col r name = col_named ~op:"Ra.col" r name

let select cond r =
  { r with rows = List.filter (fun row -> Tvl.to_bool (cond r row)) r.rows }

let select_eq name v r =
  let i = col_named ~op:"Ra.select_eq" r name in
  select (fun _ row -> Value.sql_eq row.(i) v) r

let project names r =
  let idxs = List.map (col_named ~op:"Ra.project" r) names in
  let rows =
    List.map (fun row -> Array.of_list (List.map (fun i -> row.(i)) idxs)) r.rows
  in
  { cols = Array.of_list names; rows }

let rename pairs r =
  List.iter
    (fun (c, _) ->
      if not (Array.exists (String.equal c) r.cols) then
        Columnar.unknown_column ~op:"Ra.rename" c r.cols)
    pairs;
  let cols =
    Array.map
      (fun c -> match List.assoc_opt c pairs with Some c' -> c' | None -> c)
      r.cols
  in
  { r with cols }

let product a b =
  Array.iter
    (fun c ->
      if Array.exists (String.equal c) b.cols then
        invalid_arg
          (Printf.sprintf "Ra.product: overlapping column %s (rename first)" c))
    a.cols;
  let rows =
    List.concat_map (fun ra -> List.map (fun rb -> Array.append ra rb) b.rows) a.rows
  in
  { cols = Array.append a.cols b.cols; rows }

(* Positions of the shared columns in [a] and [b], and [b]'s other
   columns. *)
let join_plan a b =
  let shared =
    List.filter
      (fun c -> Array.exists (String.equal c) b.cols)
      (Array.to_list a.cols)
  in
  let a_idx = List.map (col a) shared and b_idx = List.map (col b) shared in
  let b_keep =
    List.filter
      (fun i -> not (List.mem b.cols.(i) shared))
      (List.init (Array.length b.cols) Fun.id)
  in
  (a_idx, b_idx, b_keep)

(* NULL never joins: a shared column matches only when [sql_eq] is
   definitely true. *)
let joins a_idx b_idx ra rb =
  List.for_all2 (fun ia ib -> Tvl.to_bool (Value.sql_eq ra.(ia) rb.(ib))) a_idx b_idx

let natural_join a b =
  let a_idx, b_idx, b_keep = join_plan a b in
  let emit ra rb =
    Array.append ra (Array.of_list (List.map (fun i -> rb.(i)) b_keep))
  in
  let rows =
    List.concat_map
      (fun ra ->
        List.filter_map
          (fun rb -> if joins a_idx b_idx ra rb then Some (emit ra rb) else None)
          b.rows)
      a.rows
  in
  let b_cols = Array.of_list (List.map (fun i -> b.cols.(i)) b_keep) in
  { cols = Array.append a.cols b_cols; rows }

let semijoin a b =
  let a_idx, b_idx, _ = join_plan a b in
  let rows =
    List.filter (fun ra -> List.exists (joins a_idx b_idx ra) b.rows) a.rows
  in
  { a with rows }

module Row_set = Set.Make (struct
  type t = Value.t array

  let compare a b =
    let n = Array.length a and m = Array.length b in
    if n <> m then Int.compare n m
    else
      let rec go i =
        if i >= n then 0
        else match Value.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
      in
      go 0
end)

let distinct r = { r with rows = Row_set.elements (Row_set.of_list r.rows) }

let union a b =
  if Array.length a.cols <> Array.length b.cols then
    invalid_arg "Ra.union: arity mismatch";
  distinct { a with rows = a.rows @ b.rows }

let difference a b =
  if Array.length a.cols <> Array.length b.cols then
    invalid_arg "Ra.difference: arity mismatch";
  let bs = Row_set.of_list b.rows in
  distinct { a with rows = List.filter (fun r -> not (Row_set.mem r bs)) a.rows }

let cardinality r = List.length (distinct r).rows

(* Lossless boundary with the columnar engine: same columns, same row
   order. *)
let of_columnar c = { cols = Array.copy (Columnar.cols c); rows = Columnar.rows c }
let to_columnar r = Columnar.of_rows (Array.copy r.cols) r.rows
