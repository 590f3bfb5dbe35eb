(** Database repairs as values: the repaired instance together with its
    distance to the original (paper, Example 3.1).

    The symmetric difference [D Δ D'] decomposes into deleted facts
    ([D \ D']) and inserted facts ([D' \ D]); S-repairs minimize it under
    set inclusion and C-repairs minimize its cardinality. *)

type actions =
  [ `Delete_only  (** Only tuple deletions, as in Chomicki–Marcinkowski. *)
  | `Delete_insert
    (** Deletions plus insertions; an IND with existential head positions
        inserts NULL there (the paper's null-based tuple-level repairs,
        Section 4.2). *) ]

type t = {
  original : Relational.Instance.t;
  repaired : Relational.Instance.t;
  deleted : Relational.Fact.Set.t;
  inserted : Relational.Fact.Set.t;
}

val make : original:Relational.Instance.t -> Relational.Instance.t -> t
val delta : t -> Relational.Fact.Set.t
val cost : t -> int
(** [|D Δ D'|]. *)

val equal : t -> t -> bool
val compare_by_delta : t -> t -> int
(** Order repairs by their delta fact sets, for stable output. *)

val minimal_under_inclusion : t list -> t list
(** Keep the repairs whose delta is not a strict superset of another's. *)

val pp : Format.formatter -> t -> unit
