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

type index
(** A hash index over one column's codes, built by single-key joins;
    see {!val-index}. *)

type t = private {
  data : data;
  nulls : Bytes.t;
  has_nulls : bool;
  mutable index : index option;
      (** Filled by the first join that builds over the column; read
          only through {!val-index} and {!earned_index}. *)
  mutable probed : int;  (** Rows joins probed from it ({!note_probes}). *)
}

val of_values : Value.t array -> t
(** Build a column, picking the narrowest representation that fits the
    non-null cells. *)

val of_rows : int -> Value.t array array -> t array
(** [of_rows arity rows]: the [arity] columns of the row-major [rows],
    each equal to {!of_values} over its slice (same representation, same
    cells), built in one pass that keeps [Int] cells unboxed; only a
    column holding a non-[Int], non-NULL cell goes through {!of_values}. *)

val of_ints : int array -> t
(** A null-free [Ints] column over the array itself, not a copy (tid
    and row-ordinal columns): the caller must not write it afterwards. *)

val bitmap : int -> Bytes.t
(** [bitmap n]: [n] clear bits, one a row — the layout of the NULL
    bitmaps, also used for the rows a kernel marks. *)

val bit_set : Bytes.t -> int -> unit
val bit_get : Bytes.t -> int -> bool

val length : t -> int
val is_null : t -> int -> bool
val has_nulls : t -> bool
(** Some slot is NULL.  Computed once, when the column is made. *)

val get : t -> int -> Value.t
(** Decode one cell ([Value.Null] at null slots). *)

val getter : t -> int -> Value.t
(** [getter c] resolves the representation dispatch once; the returned
    closure decodes cells with no per-cell variant match. *)

val gather : t -> int array -> t
(** [gather c idx] is the column whose row [k] is [c]'s row [idx.(k)] —
    the projection/join output kernel.  A plain loop per representation:
    it allocates the output cells and bitmap and nothing else. *)

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

(** {2 Join index}

    Single-key joins, semijoins and antijoins probe a hash index over
    their build side's join codes.  [index c codes] returns one:

    - it is {e built} at the first join whose build side is [c] (never
      when the column is made, so loading a document builds none),
      counted in [join.index_builds];
    - it is {e kept} on [c] when [codes] is [c]'s own cell array —
      what {!pair_eq_codes} returns for a [Codes] column, or for an
      [Ints] column compared raw (no NULLs on either side) — and then
      {e reused} by every later join that builds over [c] with those
      codes.  Columns are immutable and a written relation's view is a
      new column, so a kept index is never stale;
    - over re-encoded codes (mixed types, [Ints] holding NULLs, [Bools],
      [Reals]) it is built for that one join and not kept.

    The build side is a join's right input, unless the left is larger
    and has {e earned} a kept index ({!earned_index}).  A view read once
    after a write never earns one, so it builds no index it cannot
    amortise.

    Domains may race to build the same index; both builds are equal and
    the field is published in one write.  A lost increment of the
    unsynchronised probe count only delays the earning.  NULL rows are
    not indexed. *)

val index : t -> int array -> index
(** [index c codes]: the index of [c]'s non-NULL rows keyed by [codes]
    (one code per row of [c]). *)

val note_probes : t -> int -> unit
(** [note_probes c n]: a join probed [n] of [c]'s rows into another
    column's index. *)

val earned_index : t -> int array -> index option
(** [c]'s kept index over [codes] if it has one, or has earned one —
    the rows joins probed from it exceed its length — built now; else
    [None], always so over codes that are not [c]'s own cells. *)

val index_find : index -> int -> int
(** The lowest row whose code is the key, or -1.  Allocates nothing. *)

val index_next : index -> int -> int
(** The next higher row with the same code as row [j], or -1. *)
