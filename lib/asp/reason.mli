(** Brave and cautious reasoning over stable models.

    CQA through repair programs is cautious reasoning: an answer is
    consistent iff it holds in {e every} stable model (paper, Section 3.3);
    cause extraction (Section 7) uses brave reasoning — truth in {e some}
    model. *)

val brave_facts : Syntax.t -> Relational.Fact.t list -> Relational.Fact.Set.t
(** Union of all stable models. *)

val cautious_facts :
  Syntax.t -> Relational.Fact.t list -> Relational.Fact.Set.t
(** Intersection of all stable models (empty if there is no model). *)

val brave : Syntax.t -> Relational.Fact.t list -> Relational.Fact.t -> bool
val cautious : Syntax.t -> Relational.Fact.t list -> Relational.Fact.t -> bool

val cautious_rows :
  Syntax.t ->
  Relational.Fact.t list ->
  pred:string ->
  Relational.Value.t list list
(** Rows of one predicate that appear in every stable model, sorted —
    the consistent answers when the predicate collects query answers. *)

val optimal_cautious_rows :
  Syntax.t ->
  Relational.Fact.t list ->
  pred:string ->
  Relational.Value.t list list
(** Like {!cautious_rows} but over weak-constraint-optimal models only
    (CQA under C-repairs, Section 4.1). *)
