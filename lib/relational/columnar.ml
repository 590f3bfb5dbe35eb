(* A columnar table: named typed columns of equal length.

   This is the storage half of the compiled evaluation path; the
   kernels that consume it live in [Plan].  The [length] field is
   explicit so zero-column tables (boolean query results) still carry
   their cardinality. *)

type t = { cols : string array; columns : Column.t array; length : int }

let make cols columns length = { cols; columns; length }
let cols t = t.cols
let columns t = t.columns
let length t = t.length

let unknown_column ~op name available =
  invalid_arg
    (Printf.sprintf "%s: unknown column %S (available: %s)" op name
       (if Array.length available = 0 then "none"
        else String.concat ", " (Array.to_list available)))

let col_index t name =
  let n = Array.length t.cols in
  let rec go i =
    if i >= n then unknown_column ~op:"Columnar.col_index" name t.cols
    else if String.equal t.cols.(i) name then i
    else go (i + 1)
  in
  go 0

let column t name = t.columns.(col_index t name)

let empty cols = { cols; columns = Array.map (fun _ -> Column.of_ints [||]) cols; length = 0 }

let of_rows cols (rows : Value.t array list) =
  let n = List.length rows in
  let arr = Array.of_list rows in
  let columns =
    Array.mapi
      (fun j _ -> Column.of_values (Array.init n (fun i -> arr.(i).(j))))
      cols
  in
  { cols; columns; length = n }

let rows t =
  let getters = Array.map Column.getter t.columns in
  List.init t.length (fun i -> Array.map (fun g -> g i) getters)

(* Keep the rows listed in [idx], in that order. *)
let select t idx =
  let columns = Array.copy t.columns in
  for j = 0 to Array.length columns - 1 do
    columns.(j) <- Column.gather columns.(j) idx
  done;
  { t with columns; length = Array.length idx }

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
       Format.pp_print_string)
    t.cols
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf row ->
         Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
           Value.pp ppf row))
    (rows t)
