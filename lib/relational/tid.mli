(** Global tuple identifiers.

    The paper (Example 3.5) attaches global tids to tuples so that repairs,
    annotations and causes can refer to individual tuples; attribute-level
    notions refer to cells as [tid[i]] with positions starting at 1 (position
    0 being the tid itself). *)

type t = private int

val of_int : int -> t
val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Small tid sets as sorted, duplicate-free arrays: the form in which
    conflict edges are read off the [#tid<i>] columns of a compiled
    body, without building a {!Set} per match (query witnesses are read
    into one flat arena instead, [Cavsat.Witness]). *)
module Sorted : sig
  type tid := t
  type t = tid array

  val of_columns : int array array -> int -> t
  (** [of_columns cols r]: the distinct tids in row [r] of the tid
      columns [cols], ascending. *)

  val compare : t -> t -> int
  (** Lexicographic, a proper prefix first: the order {!Set.compare}
      gives the same sets. *)

  val to_set : t -> Set.t
end

(** A cell position [tid[pos]], 1-based as in the paper (Example 4.4). *)
module Cell : sig
  type tid := t

  type t = { tid : tid; pos : int }

  val make : tid -> int -> t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit

  module Set : Stdlib.Set.S with type elt = t
end
