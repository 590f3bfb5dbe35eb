(** SAT-compiled consistent query answering (CAvSAT-style;
    Dixit–Kolaitis): exact for every union of conjunctive queries under
    denial-class constraints, and the [method=auto] route for every
    query no rewriting covers — the coNP-hard tier, weak attack cycles,
    self-joins, non-key denials and unions.

    Certainty of each candidate answer is decided without materializing
    a single repair: the candidate's witnesses are compiled over the
    shared repair {!Theory}, and one incremental SAT probe asks for an
    S-repair killing every witness.  UNSAT ⇔ the answer is certain.

    A union's candidates are its disjuncts' answers, and a candidate's
    witnesses those of every disjunct producing it ({!Witness.of_ucq}):
    a conjunctive query is the one-disjunct case, whose arena is probed
    as {!Witness.answers_with_witnesses} builds it.

    The witnesses come as one {!Witness.t} arena, and one pass over a
    candidate's witnesses sorts each by its members in some conflict:
    - none (a clean witness): it survives in every repair, so the
      candidate is certain, settled with no SAT call;
    - exactly one, [v]: killing the witness means deleting [v], so
      [¬v] becomes an assumption, written to an int buffer the read
      reuses for all its candidates;
    - two or more, [v1 … vk]: the clause [[| -v1; …; -vk |]] (members
      ascending by tid), built straight from the arena and handed to
      the solver uncopied.
    The assumptions go to {!Sat.Dpll.probe}, which learns nothing, and
    the clauses are rolled back after it, so every probe sees the base
    theory plus one candidate and the cached theory keeps its built
    size across queries.  No selector variable is needed: nothing a
    probe adds outlives it.  Past the compiled body's table and the
    arena, a warm read allocates per witness one assumption slot or one
    clause array: no witness set, literal list or closure, and no
    occurrence cell (the solver's occurrence vectors keep their
    capacity across rollbacks).

    Counters: [cavsat.queries], [cavsat.candidates], [cavsat.certain],
    [cavsat.clean_witness] (candidates settled without a SAT call),
    [cavsat.sat_calls], [cavsat.witness_units] (assumptions) and
    [cavsat.witness_clauses] (clauses) of the candidates probed, plus
    the theory-layer [cavsat.theory_builds] /
    [cavsat.theory_cache_hits] / [cavsat.vars] / [cavsat.clauses].  The
    [cavsat.certain_answers] span carries vars (the base theory's),
    clauses (the peak formula size any candidate was solved against),
    conflict_edges, candidates and certain attributes for EXPLAIN. *)

val consistent_answers :
  ?delta:Theory.delta ->
  Relational.Instance.t ->
  Relational.Schema.t ->
  Constraints.Ic.t list ->
  Logic.Ucq.t ->
  Relational.Value.t list list
(** Consistent answers to a union (a conjunctive query: {!Logic.Ucq.of_cq})
    under S-repair semantics; agrees with
    [Engine.consistent_answers_ucq ~method_:`Repair_enumeration] on every
    denial-class input.  Raises [Invalid_argument] when some constraint
    is not denial-class (inclusion dependencies repair by insertion;
    the conflict-graph theory does not capture them).  [delta] is
    passed to {!Theory.cached}: the instance's theory may be patched
    from [delta.from]'s. *)

val candidate_certain : Theory.t -> Witness.t -> Witness.candidate -> bool
(** One candidate's probe exactly as {!consistent_answers} runs it,
    with its own scratch buffers.  The solver is left as found.  The
    caller must own the theory (its own {!Theory.build}) or hold its
    lock; for tests that inspect the solver between probes. *)
