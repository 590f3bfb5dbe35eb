(** Conjunctive queries with built-in comparisons.

    [Q(x̄) : ∃ȳ (A1 ∧ ... ∧ An ∧ c1 ∧ ... ∧ cm)] where the [head] terms list
    the distinguished variables (or constants) x̄ and all other body
    variables are existential.  Evaluation follows SQL semantics for NULL:
    a variable occurring in two positions is a join and never matches
    through NULL, and comparisons touching NULL do not select. *)

type t = { name : string; head : Term.t list; body : Atom.t list; comps : Cmp.t list }

val make : ?name:string -> ?comps:Cmp.t list -> Term.t list -> Atom.t list -> t
val arity : t -> int
val head_vars : t -> string list
val body_vars : t -> string list
val existential_vars : t -> string list
val is_boolean : t -> bool

val bindings : t -> Relational.Instance.t -> Binding.t list
(** All bindings of the body variables that satisfy body and comparisons,
    distinct, in a deterministic order. *)

val answers : t -> Relational.Instance.t -> Relational.Value.t list list
(** Distinct answer tuples, sorted.  Evaluation runs the body compiled by
    {!compile_body}, projected on the head; the [scan.columnar] and
    [join.fused] counters record its kernels.  Raises [Invalid_argument]
    on a head variable that no body atom binds. *)

val holds : t -> Relational.Instance.t -> bool
(** Satisfaction of the query's body — the Boolean-query reading: the
    compiled body projected on no columns is non-empty.  An atomless body
    is decided by its ground comparisons. *)

val substitute : Subst.t -> t -> t
val pp : Format.formatter -> t -> unit

(** {1 Columnar compilation} *)

val plan_op : Cmp.op -> Relational.Plan.op

val compile_body :
  tids:bool ->
  Atom.t list ->
  Cmp.t list ->
  Relational.Plan.t * (string -> string)
(** Compile a conjunctive body (atoms + comparisons) to a joined and
    filtered {!Relational.Plan}, the one executor for conjunctive bodies:
    variable-to-variable equality comparisons are canonicalized into
    shared columns (the returned function maps each body variable to its
    representative column) and the remaining comparisons become filter
    predicates.  With [~tids:true] each atom's scan also emits its tuple
    identifier as column [#tid<i>] (atom index [i]).  An atomless body
    compiles to a one-row table filtered by its ground comparisons.
    Raises [Invalid_argument] on a comparison variable that no atom
    binds; running the plan raises [Invalid_argument] on an undeclared
    relation. *)

val tid_col : int -> string
(** [#tid<i>], the tuple-identifier column of body atom [i]. *)

val tid_columns : Relational.Columnar.t -> int -> int array array
(** The columns [#tid0 .. #tid<n-1>] of a table run from a body compiled
    with [~tids:true], as the tid integers themselves. *)

val rep_cols : (string -> string) -> string list -> string list
(** The distinct representative columns of the given variables under
    {!compile_body}'s variable mapping, in first-occurrence order. *)
