(** One typed column of a {!Columnar} table: a dense unboxed array plus
    a NULL bitmap.

    Homogeneous primitive columns keep native [int]/[float]/[bool]
    arrays; string-valued and mixed-type columns are coded through the
    global {!Dict}.  NULL lives out-of-band in the bitmap — the cell
    under a null slot is a dummy — so every kernel checks {!is_null}
    (or masks with the bitmap) before trusting a cell, which is exactly
    what implements "NULL never joins". *)

type data =
  | Ints of int array
  | Reals of float array
  | Bools of bool array
  | Codes of int array  (** global {!Dict} codes; null slots hold Null's code *)

type t = { data : data; nulls : Bytes.t }

val of_values : Value.t array -> t
(** Build a column, picking the narrowest representation that fits the
    non-null cells. *)

val of_rows : int -> Value.t array array -> t array
(** [of_rows arity rows]: the [arity] columns of the row-major [rows],
    each equal to {!of_values} over its slice (same representation, same
    cells), built in one pass that keeps [Int] cells unboxed; only a
    column holding a non-[Int], non-NULL cell goes through {!of_values}. *)

val of_ints : int array -> t
(** A null-free [Ints] column (tid columns). *)

val length : t -> int
val is_null : t -> int -> bool
val has_nulls : t -> bool

val get : t -> int -> Value.t
(** Decode one cell ([Value.Null] at null slots). *)

val getter : t -> int -> Value.t
(** [getter c] resolves the representation dispatch once; the returned
    closure decodes cells with no per-cell variant match. *)

val gather : t -> int array -> t
(** [gather c idx] is the column whose row [k] is [c]'s row [idx.(k)] —
    the projection/join output kernel. *)

val concat : t -> t -> t

val eq_codes : t -> int array
(** Codes under which, {e within this column}, code equality coincides
    with [Value.equal] — including Null = Null.  Backs the distinct /
    difference kernels. *)

val pair_eq_codes : t -> t -> int array * int array
(** Same contract across two columns (for joins and positional set
    difference): the returned arrays are comparable with each other.
    Null slots decode to Null's dictionary code, so join kernels must
    additionally mask nulls via {!is_null} to keep SQL semantics. *)
