(** The instance-level half of the CAvSAT encoding: a CNF theory whose
    models are exactly the S-repairs of a (instance, denial-class
    constraints) pair, over one Boolean variable per conflicting tuple
    ("the tuple is kept").  Independence clauses come from the conflict
    hyperedges; maximality clauses pin models to *maximal* independent
    sets, so certainty tested against the theory agrees with repair
    enumeration.

    Built once per (instance digest × constraints) through {!cached}
    and shared by all answer candidates — the persistent solver inside
    keeps the indexed theory; {!Certain} rolls each candidate's clauses
    back after its solve, so the solver stays at its [base] size. *)

type stats = { vars : int; clauses : int; conflict_edges : int }

type t = {
  solver : Sat.Dpll.t;
  conflicting : int array;
      (** The tid integers of the conflicting tuples, ascending: the
          tuple at index [i] has solver variable [i + 1].  Sized by the
          conflicts, not by the instance or its largest tid; read it
          through {!var_for}. *)
  no_repairs : bool;
      (** Some constraint is violated by the empty binding: the instance
          has no S-repairs, so no answer is certain. *)
  base : stats;  (** Size of the theory as built, before any query. *)
  lock : Mutex.t;
      (** Serializes candidate probes on the shared solver. *)
}

val build :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> t
(** The theory straight from {!Constraints.Conflict_graph.sorted_edges}:
    no conflict graph is built and the graph memo is not touched.
    Conflicting tuples get variables [1..k] in ascending tid order
    (numbered through a scratch array indexed by tid, dropped after the
    build); then
    come the independence clauses (edge order), per tuple in tid order
    its maximality clause (aux variables and their implications first,
    for edges of three or more tuples; an aux-free clause equal to an
    earlier one is skipped), and the self-violation units (edge order).
    Emits a [cavsat.theory_build] span with [edges]/[vars]/[clauses]
    attributes.  Raises [Invalid_argument] (the conflict graph's message)
    when the constraint set is not denial-class. *)

val cached :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> t
(** {!build} through a {!Constraints.Memo} (8 entries, most recently
    used first) keyed by instance digest and
    {!Constraints.Memo.fingerprint}, verified against the cached
    instance before reuse.  Counters: [cavsat.theory_builds],
    [cavsat.theory_cache_hits]. *)

val var_for : t -> Relational.Tid.t -> int option
(** The solver variable of a conflicting tuple; [None] for tuples
    outside every conflict (kept by all repairs).  A binary search of
    [conflicting]. *)
