(** Database values, including the SQL-style [Null].

    [Null] has the semantics the paper relies on in Sections 4.2 and 4.3: it
    never satisfies a join or a comparison, and two nulls are never equal to
    each other under query evaluation (see {!Tvl} for the three-valued
    comparison logic).  Structural equality [equal] treats [Null] as equal to
    [Null] — that is the right notion for set-based instance manipulation
    (diffs, repairs) — whereas {!sql_eq} implements the query-time
    three-valued comparison. *)

type t =
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Null

val equal : t -> t -> bool
(** Structural equality; [equal Null Null = true]. *)

val compare : t -> t -> int
(** Total structural order, usable for [Set]/[Map] functors. *)

val sql_eq : t -> t -> Tvl.t
(** SQL three-valued equality: [Unknown] if either side is [Null]. *)

val sql_cmp : (int -> bool) -> t -> t -> Tvl.t
(** [sql_cmp test a b] applies [test] to [compare a b] under three-valued
    logic, e.g. [sql_cmp (fun c -> c < 0)] is SQL [<].  Comparing values of
    different runtime types yields [Unknown], as does any [Null]. *)

val is_null : t -> bool

val int : int -> t
val str : string -> t
val real : float -> t
val bool : bool -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** The text {!pp} prints, built without a formatter. *)

val hash : t -> int
