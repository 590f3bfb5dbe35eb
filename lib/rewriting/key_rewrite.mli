(** First-order CQA rewriting for self-join-free conjunctive queries under
    primary keys: every query with an acyclic Koutris–Wijsen attack graph
    (paper, Section 3; Koutris & Wijsen, JACM 2017), which contains the
    Fuxman–Miller C-forest class of Section 3.2 and also answers
    projections like the paper's Q2, where the residue rewriting of
    {!Residue_rewrite} is incomplete.

    The rewriting follows the unattacked-atom elimination order of
    {!Analysis.Attack_graph.rewriting_input}.  Eliminating level [l]'s
    atom [R_l(key, ū)] keeps some key block all of whose tuples satisfy
    that level's conditions (constants, repeated and already-bound
    variables, the comparisons due there) and leave a certain remainder,
    so the query [q] becomes [∃ body ∧ G₁] with

    {v
    G_l = ∀ū (R_l(key, ū) → conds_l(ū) ∧ ∃v̄ (R_l+1(key', ē) ∧ G_l+1))
    v}

    All-key atoms (one tuple per block) add no guard, and saturation
    helper atoms are inlined as their defining body.  The result is a
    guarded ∃∀ formula that {!Logic.Formula.answers} compiles to a
    columnar {!Relational.Plan}.  For a C-forest query it is the
    Fuxman–Miller rewriting.

    Like SQL, the formula never joins through NULL, and it disagrees
    with the repairs wherever a relation the query reads holds one: a
    NULL-keyed tuple joins no block; a head variable under the
    existential prefix never binds NULL; and a tuple with a NULL non-key
    cell, which conflicts with no block mate, is still quantified over
    as a mate by the guard, which refutes the block when the NULL joins
    nothing.  The engine sends such instances to an exact route
    instead. *)

val of_input : Analysis.Attack_graph.rewriting_input -> Logic.Formula.t
(** The rewriting of a prepared input; its free variables are the head
    variables of [input.query]. *)

val rewrite :
  Logic.Cq.t -> keys:(string * int list) list -> Logic.Formula.t option
(** [None] when {!Analysis.Attack_graph.rewriting_input} declines: a
    self-join, an unsafe query, an empty body or a cyclic attack graph.
    Relations missing from [keys] are keyed on all their attributes. *)

val answers :
  Analysis.Attack_graph.rewriting_input ->
  Relational.Instance.t ->
  Relational.Value.t list list
(** Evaluate {!of_input} on an instance: distinct answer tuples, sorted
    like {!Logic.Cq.answers}. *)

val consistent_answers :
  Logic.Cq.t ->
  keys:(string * int list) list ->
  Relational.Instance.t ->
  Relational.Value.t list list option
(** {!rewrite} then evaluate; [None] when the query is outside the
    rewritable class. *)
