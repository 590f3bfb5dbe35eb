(** SAT-compiled consistent query answering (CAvSAT-style;
    Dixit–Kolaitis): exact for every conjunctive query under
    denial-class constraints, and the [method=auto] route for every
    query no rewriting covers — the coNP-hard tier, weak attack cycles,
    self-joins and non-key denials.

    Certainty of each candidate answer is decided without materializing
    a single repair: the candidate's witnesses are compiled to clauses
    over the shared repair {!Theory}, and one incremental SAT call under
    a per-candidate selector assumption asks for an S-repair killing
    every witness.  UNSAT ⇔ the answer is certain.  The solver is
    marked before each candidate's clauses and rolled back after its
    solve, so every call sees the base theory plus one candidate and
    the cached theory keeps its built size across queries.

    The witnesses come as one {!Witness.t} arena.  A candidate is
    settled as certain, with no clause added, as soon as one of its
    witnesses has no member in any conflict.  Otherwise each witness
    becomes one clause array [[| -s; -v1; … |]] (members ascending by
    tid), built straight from the arena and handed to the solver
    uncopied, in witness order.  Past the compiled body's table and the
    arena, a warm read allocates per witness only that array and its
    occurrence-list cells, which the rollback drops: no witness set,
    literal list or closure.

    Counters: [cavsat.queries], [cavsat.candidates], [cavsat.certain],
    [cavsat.clean_witness] (candidates settled without a SAT call),
    [cavsat.sat_calls], [cavsat.witness_clauses], plus the theory-layer
    [cavsat.theory_builds] / [cavsat.theory_cache_hits] /
    [cavsat.vars] / [cavsat.clauses].  The [cavsat.certain_answers]
    span carries vars/clauses (the peak formula size any candidate was
    solved against), conflict_edges, candidates and certain attributes
    for EXPLAIN. *)

val consistent_answers :
  ?delta:Theory.delta ->
  Relational.Instance.t ->
  Relational.Schema.t ->
  Constraints.Ic.t list ->
  Logic.Cq.t ->
  Relational.Value.t list list
(** Consistent answers under S-repair semantics; agrees with
    [Engine.consistent_answers ~method_:`Repair_enumeration] on every
    denial-class input.  Raises [Invalid_argument] when some constraint
    is not denial-class (inclusion dependencies repair by insertion;
    the conflict-graph theory does not capture them).  [delta] is
    passed to {!Theory.cached}: the instance's theory may be patched
    from [delta.from]'s. *)
