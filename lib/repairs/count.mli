(** Counting repairs (paper, Section 3.2; Maslowski–Wijsen [90],
    Livshits–Kimelfeld [84]).

    For denial-class constraints the number of S-repairs equals the number
    of minimal hitting sets of the conflict hypergraph; for pure primary-key
    conflicts there is a closed form — every key block contributes a factor
    equal to its size (each repair keeps exactly one claimant per block) —
    which is the tractable side of the counting dichotomy. *)

exception Overflow of string
(** The closed form's product of block sizes exceeds [max_int]; the
    message names the bound.  A count is never returned wrapped. *)

val s_repairs :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> int
(** Exact count; uses the closed form when all constraints are primary keys
    and hypergraph hitting-set counting otherwise. *)

val c_repairs :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> int

val key_blocks :
  Relational.Instance.t ->
  Relational.Schema.t ->
  rel:string ->
  key:int list ->
  int list
(** Sizes of the key-equal tuple groups with at least two claimants. *)

val closed_form_keys :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list ->
  int option
(** Product of block sizes, when every constraint is a primary key (at most
    one per relation); [None] otherwise.  Raises {!Overflow} when the
    product exceeds [max_int]. *)
