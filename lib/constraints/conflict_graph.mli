(** Conflict hypergraphs (paper, Figure 1 / Example 4.1).

    Vertices are the tuples of the instance; a hyperedge connects the tuples
    of one constraint violation.  For denial-class constraints:
    - S-repairs are the sub-instances whose tid sets are the complements of
      the minimal hitting sets of the edges (maximal independent sets);
    - C-repairs correspond to minimum-cardinality hitting sets. *)

type t = {
  vertices : Relational.Tid.Set.t;
  edges : Relational.Tid.Set.t list; (* distinct, in [Set.compare] order *)
}

val build :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> t
(** Raises [Invalid_argument] when the constraint set contains an inclusion
    dependency — INDs are not denials and their repairs are not captured by
    a conflict hypergraph. *)

val fingerprint : Ic.t list -> string
(** A cache key for a constraint list: equal fingerprints imply equal
    constraint lists (constants compared with their types, CFD patterns
    included).  Only meaningful within one process. *)

val build_cached :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> t
(** [build] through a small bounded memo keyed by the instance digest and
    the constraints' {!fingerprint}, verified against the cached instance
    before reuse (digests are hashes, not proofs).  Domain-safe; the
    [conflict_graph.cache_hits]/[cache_misses] counters record behaviour. *)

val edges_as_int_lists : t -> int list list
(** For the hitting-set solvers: each edge as a list of tid integers. *)

val degree : t -> Relational.Tid.t -> int
(** Number of edges containing the tuple. *)

val conflicting_tids : t -> Relational.Tid.Set.t
(** Tuples involved in at least one conflict. *)

val is_independent : t -> Relational.Tid.Set.t -> bool
(** No edge fully contained in the given set. *)

val pp : Format.formatter -> t -> unit
