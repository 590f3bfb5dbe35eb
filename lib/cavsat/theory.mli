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
    back after its solve, so the solver stays at its [base] size.

    {2 Patches}

    A theory survives updates.  Every clause belongs to one conflict
    edge (its independence clause, and the unit of a self-violation) or
    to one tuple (its maximality clause with the aux variables and
    implications behind it; an aux-free maximality clause is shared,
    refcounted, by the tuples with the same closed binary
    neighbourhood).  Given the tuples an update deleted and added,
    {!cached} patches the base's theory in place: it removes the edges
    holding a deleted tuple ({!Sat.Dpll.remove_clause}), adds
    {!Constraints.Conflict_graph.edges_with} of each added tuple (on the
    post-write instance), then re-encodes the maximality clause of every
    tuple whose edges changed.  The cost follows the delta, not the
    conflicts.

    Numbering after a patch: a tuple keeps its variable while it has an
    edge.  A tuple left with no edge gives its variable back and drops
    out of {!var_for} (its witnesses count as clean again); so do the
    aux variables of a re-encoded tuple.  A tuple entering a conflict,
    and every new aux variable, takes a given-back variable first (the
    most recent one), else a fresh one past {!Sat.Dpll.nvars}.  A given-back
    variable has no live clause.  The solver never compacts itself:
    once removed clauses outnumber the live ones, or given-back
    variables the ones in use, the next patch is refused and the theory
    is rebuilt cold. *)

type stats = { vars : int; clauses : int; conflict_edges : int }

type state
(** The patchable bookkeeping: per-tuple incidence, the tid→variable
    map, each edge's clauses, the shared maximality clauses. *)

type t = {
  solver : Sat.Dpll.t;
  no_repairs : bool;
      (** Some constraint is violated by the empty binding: the instance
          has no S-repairs, so no answer is certain.  Such a theory has
          variables but no clause; a patch never changes the flag. *)
  mutable base : stats;
      (** Size of the theory before any query: the solver's variable
          and clause-slot counts (removed clauses included) and the
          live conflict edges. *)
  lock : Mutex.t;
      (** Serializes candidate probes and patches on the shared solver. *)
  mutable encodes : Relational.Instance.t;
      (** The instance the theory currently encodes; see {!encodes}. *)
  state : state;
}

type delta = {
  from : Relational.Instance.t;
  added : Relational.Tid.Set.t;  (** Tuples of the new instance not in [from]. *)
  deleted : Relational.Tid.Set.t;  (** Tuples of [from] not in the new instance. *)
}
(** What separates an instance from an earlier one whose theory may be
    cached: the net tid delta of the writes since ([Engine.update]).
    Tids are never reused, so an added tid is never one of [from]'s. *)

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
    earlier one is shared, not repeated), and the self-violation units
    (edge order).  Patches use the same per-tuple encoder.  Emits a
    [cavsat.theory_build] span with [edges]/[vars]/[clauses]
    attributes.  Raises [Invalid_argument] (the conflict graph's message)
    when the constraint set is not denial-class. *)

val cached :
  ?delta:delta ->
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> t
(** {!build} through a {!Constraints.Memo} (8 entries, most recently
    used first) keyed by instance digest and
    {!Constraints.Memo.fingerprint}, verified against the cached
    instance before reuse.  On a miss with [delta], the theory of
    [delta.from], if the memo holds it, is taken out, patched under its
    lock to the instance, and filed under the instance's key: a
    [cavsat.theory_patch] span (attributes [tids_added],
    [tids_deleted], [edges_added], [edges_removed],
    [clauses_removed]), counted in [cavsat.theory_patches] and as a
    [cavsat.theory_cache_hits] hit.  Another instance sharing
    [delta.from]'s theory then gets a cold build.  The theory is built
    cold instead when the memo no longer holds [delta.from]'s theory,
    when the delta has more tids than the theory has tuple variables
    (span attribute [rebuild=large_delta]), when removed clauses or
    given-back variables outnumber the live ones ([rebuild=dead_clauses]),
    or when the solver holds a learned clause, which a removal could
    invalidate ([rebuild=learned_clauses]; a {!Certain} probe learns
    nothing, so only a direct [Dpll.solve] leaves one).
    Counters: [cavsat.theory_builds], [cavsat.theory_cache_hits],
    [cavsat.theory_patches]. *)

val patch :
  t -> delta ->
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list ->
  unit
(** Patch the theory of [delta.from] in place into the theory of the
    instance (see Patches above), with no size check and no lock taken:
    {!cached} calls it under the theory's lock.  Emits the
    [cavsat.theory_patch] span and counts [cavsat.theory_patches].
    Raises [Invalid_argument] while the solver holds a learned clause
    ({!Sat.Dpll.remove_clause}). *)

val encodes : t -> Relational.Instance.t -> bool
(** Does the theory (still) encode this instance?  A theory found in
    the memo may be patched to a later instance before its lock is
    taken; a reader checks this once it holds the lock, and only then:
    when the instance is equal to (not the same as) the one in
    [encodes], it replaces it there, so the next check is physical. *)

val var_for : t -> Relational.Tid.t -> int option
(** The solver variable of a conflicting tuple; [None] for tuples
    outside every conflict (kept by all repairs). *)

val var_of_tid : t -> int -> int
(** {!var_for} on a tid integer, with [0] for [None]: a lookup that
    allocates nothing, for the per-witness loops of [Certain]. *)

val conflicting : t -> int array
(** The tid integers of the conflicting tuples, ascending. *)

type name =
  | Tuple of Relational.Tid.t
  | Aux of Relational.Tid.Sorted.t * Relational.Tid.t
      (** The aux variable of a wide edge (its members) for one of its
          tuples. *)

val name_of : t -> int -> name option
(** What a variable stands for; [None] for a given-back variable (or
    one outside the theory). *)
