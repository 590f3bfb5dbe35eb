type t =
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Null

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Null, Null -> true
  | (Int _ | Real _ | Str _ | Bool _ | Null), _ -> false

(* Order by constructor rank first so that values of different types are
   comparable in a stable way inside Sets and Maps. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Real _ -> 3
  | Str _ -> 4

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null, Null -> 0
  | _, _ -> Int.compare (rank a) (rank b)

let is_null = function Null -> true | Int _ | Real _ | Str _ | Bool _ -> false

let same_type a b = rank a = rank b

let sql_eq a b =
  if is_null a || is_null b then Tvl.Unknown
  else Tvl.of_bool (equal a b)

let sql_cmp test a b =
  if is_null a || is_null b then Tvl.Unknown
  else if not (same_type a b) then Tvl.Unknown
  else Tvl.of_bool (test (compare a b))

let int x = Int x
let str s = Str s
let real r = Real r
let bool b = Bool b

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Real r -> Format.pp_print_float ppf r
  | Str s -> Format.pp_print_string ppf s
  | Bool b -> Format.pp_print_bool ppf b
  | Null -> Format.pp_print_string ppf "NULL"

(* The text [pp] prints, without a formatter per call: these are the
   conversions the [Format.pp_print_*] functions use. *)
let to_string = function
  | Int x -> Int.to_string x
  | Real r -> string_of_float r
  | Str s -> s
  | Bool b -> string_of_bool b
  | Null -> "NULL"

let hash = function
  | Int x -> Hashtbl.hash (2, x)
  | Real r -> Hashtbl.hash (3, r)
  | Str s -> Hashtbl.hash (4, s)
  | Bool b -> Hashtbl.hash (1, b)
  | Null -> Hashtbl.hash 0
