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

    The evaluator is generator-driven: existential variables are bound by
    scanning positive atom conjuncts rather than the whole active domain
    whenever possible, so rewritten queries evaluate in time close to a
    hand-written SQL plan. *)

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
val of_cq_body : Cq.t -> t
(** The body of a CQ as a conjunction (without quantifying anything). *)

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

    When the formula has the guarded ∃∀-shape the FO rewritings produce —
    a conjunction of atoms, guarded atoms [A ∧ ∀ū (A' → conds)] and
    comparisons under an existential prefix — evaluation compiles to a
    fused columnar {!Relational.Plan}: guards subtract the rows refuted by
    each refutation branch (negated-comparison filters and antijoins
    against child guards) via row-identity antijoins on a synthetic
    ordinal column.  A child whose own atoms do not generate all its free
    variables is seeded with the distinct mate-join values of them, so
    the antijoin matches on every variable the child shares with its
    guard.  Other shapes (and free variables needing active-domain
    enumeration) run {!interpret}. *)

val interpret :
  Relational.Instance.t -> free:string list -> t -> Relational.Value.t list list
(** {!answers} on the generator-driven interpreter alone, never compiled:
    the reference the compiled plans are checked and benchmarked against.
    Each call counts one [scan.row]. *)

val pp : Format.formatter -> t -> unit
