(** Candidate answers with witnesses.

    The candidate answers of a conjunctive query on an inconsistent
    instance are its plain answers; each comes with the distinct tid
    sets of the body matches ("witnesses") producing it.  A candidate
    holds in a repair iff some witness tid set is contained in it, which
    is exactly what the SAT encoding needs to assert "no surviving
    witness".

    A witness is a {!Relational.Tid.Sorted.t}: the distinct tids of one
    match, ascending (a self-join matching one tuple twice yields a
    single tid).  It is read straight off the compiled body's [#tid<i>]
    columns, with no set or binding built per match. *)

val answers_with_witnesses :
  Logic.Cq.t ->
  Relational.Instance.t ->
  (Relational.Value.t list * Relational.Tid.Sorted.t list) list
(** Distinct answer rows in sorted order (matching [Cq.answers]), each
    with at least one witness.  A candidate's witnesses are distinct and
    listed in {!Relational.Tid.Sorted.compare} order.  A Boolean query
    yields the empty row when its body is satisfiable. *)
