(** Incremental conflict maintenance — repairs and CQA under updates
    (paper, Section 4.1: Lopatenko–Bertossi [87] "just started to scratch
    the surface in this direction").

    Keeps the conflict hypergraph of a denial-class constraint set
    synchronized with tuple insertions and deletions: the graph starts
    from {!Constraints.Conflict_graph.sorted_edges}, an insertion only
    adds {!Constraints.Conflict_graph.edges_with} the new tuple, a
    deletion only drops the edges containing it.  Repairs and consistent answers are then
    recomputed from the maintained graph without rescanning the database. *)

type t

val create :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> t
(** Raises [Invalid_argument] on non-denial-class constraints (the
    message of {!Constraints.Conflict_graph.sorted_edges}). *)

val instance : t -> Relational.Instance.t
val graph : t -> Constraints.Conflict_graph.t
val is_consistent : t -> bool

val insert : t -> Relational.Fact.t -> t * Relational.Tid.t
val delete : t -> Relational.Tid.t -> t

val s_repairs : t -> Repair.t list
(** From the maintained hypergraph (no revalidation pass). *)

val consistent_answers : t -> Logic.Cq.t -> Relational.Value.t list list
