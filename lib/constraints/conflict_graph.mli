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

val sorted_edges :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list ->
  Relational.Tid.Sorted.t list
(** The hyperedges alone: the violating tid set of every match of every
    constraint's denials, each an ascending duplicate-free array, the
    list distinct and in {!Relational.Tid.Sorted.compare} order (the
    order [Set.compare] gives the same sets).  Keys and FDs give their
    two-tuple edges by grouping the relation's rows on the lhs
    ({!Violation.fd_conflicts}); denials and CFDs run their compiled
    self-join bodies ({!Violation.tid_sets}).  An atomless denial
    violated by its ground comparisons contributes the empty edge.  The
    one place edges are computed: {!build} converts these, and the SAT
    route ([Cavsat.Theory]) consumes them directly, so it neither builds
    a graph nor fills the {!build_cached} memo.  Raises
    [Invalid_argument] when the constraint set contains an inclusion
    dependency — INDs are not denials and their repairs are not captured
    by a conflict hypergraph. *)

val edges_with :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list ->
  Relational.Tid.t -> Relational.Tid.Sorted.t list
(** Exactly the edges of {!sorted_edges} that contain the tuple, in the
    same order, without computing the others: a key or FD reads only the
    tuple's lhs group ([Violation.fd_conflicts ~pinned], one scan, no
    sort), and any other denial runs its compiled body once per atom
    over the tuple's relation with that atom pinned to the tuple
    ([Violation.tid_sets ~pinned]).  [[]] for a tid absent from the
    instance.  The per-tuple delta behind the SAT theory's patches
    ([Cavsat.Theory]) and [Repairs.Incremental.insert].  Raises
    [Invalid_argument] as {!sorted_edges} does. *)

val build :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> t
(** {!sorted_edges} as tid sets, with every tuple of the instance as a
    vertex.  Raises [Invalid_argument] as {!sorted_edges} does. *)

val build_cached :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> t
(** [build] through a {!Memo} (8 entries, most recently used first),
    keyed by the instance digest and the constraints'
    {!Memo.fingerprint} and
    verified against the cached instance before reuse (digests are
    hashes, not proofs).  Used by enumeration, C-repairs, counting and
    repair checking; the SAT route does not go through it.  Domain-safe;
    the [conflict_graph.cache_hits]/[cache_misses] counters record
    behaviour. *)

val edges_as_int_lists : t -> int list list
(** For the hitting-set solvers: each edge as a list of tid integers. *)

val degree : t -> Relational.Tid.t -> int
(** Number of edges containing the tuple. *)

val conflicting_tids : t -> Relational.Tid.Set.t
(** Tuples involved in at least one conflict. *)

val is_independent : t -> Relational.Tid.Set.t -> bool
(** No edge fully contained in the given set. *)

val pp : Format.formatter -> t -> unit
