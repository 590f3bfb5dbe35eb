(** A columnar table: named {!Column}s of equal length, the storage
    half of the compiled evaluation path (the kernels live in {!Plan}).

    [length] is explicit so zero-column tables — boolean query results —
    still carry a cardinality. *)

type t = { cols : string array; columns : Column.t array; length : int }

val make : string array -> Column.t array -> int -> t
val empty : string array -> t
val of_rows : string array -> Value.t array list -> t

val cols : t -> string array
val columns : t -> Column.t array
val length : t -> int

val col_index : t -> string -> int
(** Raises [Invalid_argument] naming the missing column and the
    available ones. *)

val column : t -> string -> Column.t

val rows : t -> Value.t array list

val select : t -> int array -> t
(** [select t idx] keeps the rows listed in [idx], in that order. *)

val unknown_column : op:string -> string -> string array -> 'a
(** Raise the uniform descriptive unknown-column error: ["<op>: unknown
    column \"c\" (available: a, b)"]. *)

val pp : Format.formatter -> t -> unit
