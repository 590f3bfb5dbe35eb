(** First-order formulas over the database schema, with an evaluator that
    follows SQL semantics.

    This is the target language of the consistent-query-answering rewritings
    of Sections 2 and 3.1: e.g. query (6) of the paper,
    [Employee(x,y) ∧ ¬∃z (Employee(x,z) ∧ z ≠ y)].

    Evaluation semantics, chosen to match how such rewritings behave when
    translated to SQL (Example 3.4):
    - atoms and comparisons are three-valued in the presence of NULL
      (a comparison or join through NULL is unknown and does not select);
    - quantifiers are two-valued, like SQL [EXISTS]: [Exists] is true iff
      some binding makes the body definitely true, and [Forall x φ] is
      [¬Exists x ¬φ].

    Two evaluators share these semantics.  {!answers} compiles the
    rewritings' shapes to a columnar {!Relational.Plan} — the one
    executor of FO rewritings.  {!eval}, {!holds} and {!interpret} are the
    generator-driven row interpreter, the reference the plans are
    checked and benchmarked against: existential variables are bound by
    positive atom conjuncts rather than the whole active domain whenever
    possible, through lookups private to the call (rows grouped by the
    positions a binding fixes), sharing no index with the executor. *)

type t =
  | True
  | False
  | Atom of Atom.t
  | Cmp of Cmp.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string list * t
  | Forall of string list * t

val conj : t list -> t
val disj : t list -> t
val exists : string list -> t -> t
val forall : string list -> t -> t
val of_cq : Cq.t -> t
(** The CQ as a closed-or-open formula: existential variables quantified,
    head variables free. *)

val free_vars : t -> string list

val substitute : Subst.t -> t -> t
(** Capture-avoiding only in the weak sense required here: quantified
    variables are never substituted; callers must standardize apart. *)

val nnf : t -> t
(** Negation normal form: negations pushed onto atoms and absorbed into
    comparisons.  Semantics-preserving under the evaluation rules above. *)

val eval : Relational.Instance.t -> Binding.t -> t -> Relational.Tvl.t
(** Evaluate a formula whose free variables are all bound by the binding.
    Raises [Invalid_argument] on an unbound free variable reached outside a
    positive generator. *)

val holds : Relational.Instance.t -> t -> bool
(** [eval] on a closed formula, selecting definite truth. *)

val answers :
  Relational.Instance.t -> free:string list -> t -> Relational.Value.t list list
(** All bindings of [free] (as tuples in the order given) that make the
    formula definitely true.  Complete for formulas where every free and
    existential variable is range-restricted by a positive atom conjunct,
    and falls back to active-domain enumeration otherwise.

    The compiled fragment: under an existential prefix, a conjunction of
    atoms (joined), comparisons (filters) and guards evaluated per
    binding, each guard subtracting the bindings it refutes by row
    identity: the conjunction is materialized with a synthetic ordinal
    column, and the ordinals a refutation returns are marked in one
    bitmap over the table's rows, with no join index built:
    - the key rewriting's [∀ū (A → cond1 ∧ … ∧ condk)], refuted over the
      mate join [conj ⋈ A] by a negated-comparison filter or an antijoin
      against a child [∃ v̄ conj'] (a child whose own atoms do not
      generate all its free variables is seeded with the distinct
      mate-join values of them);
    - the residue rewriting's [∀ū (¬B1 ∨ … ∨ ¬Bm ∨ L1 ∨ … ∨ Lk)] with
      comparisons [Li], refuted by the one conjunction
      [B1 ∧ … ∧ Bm ∧ ¬L1 ∧ … ∧ ¬Lk] joined onto the bindings, after each
      [u ≠ t] with [u ∈ ū] is substituted into the atoms (so a key
      guard [∀ū (¬R(ū) ∨ x ≠ u1 ∨ y = u2)] is a join on [x], not a cross
      product); [ū] may be empty, and a literal [x ≠ c] on a free
      variable (a constraint constant) is a filter of the refutation.
    Other shapes — positive atoms under a guard (an inclusion
    dependency's residue), variables only the active domain binds — run
    {!interpret}. *)

val interpret :
  Relational.Instance.t -> free:string list -> t -> Relational.Value.t list list
(** {!answers} on the generator-driven interpreter alone, never compiled:
    the reference the compiled plans are checked and benchmarked against,
    and the fallback for shapes outside the compiled fragment.  Each call
    counts one [scan.row]. *)

val pp : Format.formatter -> t -> unit
