(** The unified consistent-query-answering engine — one façade over the
    three computational approaches the paper surveys:

    - {b repair enumeration}: materialize every S-repair and intersect the
      query answers (the model-theoretic definition, exact but worst-case
      exponential — Section 3.1);
    - {b first-order rewriting}: answer a rewritten query directly on the
      inconsistent database (Sections 2, 3.1–3.2; residue-based, and the
      attack-graph key rewriting, which contains Fuxman–Miller's);
    - {b answer-set programming}: cautious reasoning over the repair
      program's stable models (Section 3.3).

    All methods agree where they are defined; the [`Auto] method picks the
    cheapest one that is exact for the given query and constraints. *)

type since
(** The net tid delta from the last instance whose SAT theory may be
    cached, if a SAT read ran; see {!update}. *)

type t = private {
  instance : Relational.Instance.t;
  schema : Relational.Schema.t;
  ics : Constraints.Ic.t list;
  since : since;
}

type answer_method =
  [ `Repair_enumeration
  | `Residue_rewriting
  | `Key_rewriting
  | `Datalog  (** An alias of [`Key_rewriting], kept for old callers. *)
  | `Asp
  | `Sat
  | `Auto ]

val create :
  schema:Relational.Schema.t ->
  ics:Constraints.Ic.t list ->
  Relational.Instance.t ->
  t

val update : t -> [ `Add | `Del ] -> Relational.Fact.t -> t
(** The engine over the instance with one fact added or deleted, or [t]
    itself when that changes nothing (a present fact added, an absent
    one deleted).  O(fact): besides the instance write it only records
    the net tids added and deleted since the last instance whose SAT
    theory may be cached — this engine's base, or this engine itself
    once a SAT read ran on it.  The first SAT read after the writes
    passes that delta to {!Cavsat.Theory.cached}, which patches the
    base's theory instead of rebuilding it.  On an engine no SAT read
    ran on (nor on the engines it was written from), nothing is
    recorded and no earlier instance is kept alive; a later SAT read
    builds its theory cold.  Raises [Invalid_argument] as
    {!Relational.Instance.insert} does. *)

val is_consistent : t -> bool

type route = [ `Direct | `Key_rewriting | `Sat_compilation | `Repair_enumeration ]
(** What [`Auto] will actually execute, by the classifier's verdict:

    - [FO_rewritable] with no relevant constraint: [`Direct], plain
      evaluation;
    - [FO_rewritable] otherwise (an acyclic attack graph):
      [`Key_rewriting], the elimination-order rewriting of
      {!Rewriting.Key_rewrite} on the columnar executor;
    - [Conp_hard] or [Unknown] (weak attack cycle, self-join, non-key
      denial, multiple keys, declined rewriting) when every constraint
      is denial-class: [`Sat_compilation], CAvSAT-style SAT compilation,
      exact for every conjunctive query there;
    - [`Repair_enumeration] only when some constraint is not
      denial-class (an inclusion dependency repairs by insertion, which
      the SAT theory does not model).

    A union of two or more conjunctive queries is [`Direct] when every
    disjunct is, else [`Sat_compilation] under denial-class constraints
    (a candidate is certain iff no repair kills the witnesses of every
    disjunct) and [`Repair_enumeration] otherwise.

    The rewriting declines at run time when a relation the query reads
    holds a NULL; the query then falls back to SAT under denial-class
    constraints and to enumeration otherwise.  [`Auto] reports the
    route that ran, not the planned one, as the [Obs.Progress] branch
    and as the [executed_route] attribute of its
    [engine.certain_answers] span (next to the planned [route]). *)

type plan = {
  route : route;
  classification : Analysis.Classify.t;
  rewriting : Analysis.Attack_graph.rewriting_input option;
      (** The classifier's rewriting input for [`Key_rewriting]: the
          route runs it without analyzing the query again. *)
}

val plan : t -> Logic.Cq.t -> plan
(** The static decision [`Auto] dispatches on, without running anything:
    the complexity classifier's verdict with its witness, and the method
    chosen from it.  Pure — safe to call from EXPLAIN/ANALYZE. *)

val plan_ucq : t -> Logic.Ucq.t -> plan
(** {!plan} of a union: its one disjunct's, or the union's route with
    the verdict [Unknown], witness [Union_query], and no rewriting. *)

val route_label : route -> string

val refusal :
  ?semantics:[ `S | `C ] ->
  t ->
  name:string ->
  Logic.Ucq.t ->
  answer_method ->
  string option
(** Why the query [name] has no route: a union under C-repair
    [semantics] (default [`S]), or under a rewriting method, which
    rewrites single queries ([method=M not applicable to NAME: WHY],
    with the analyzer's diagnostic).  QUERY answers [ERR] with it,
    [cqa answers] exits 2 with it, and the answering functions raise
    [Invalid_argument] with it. *)

val consistent_answers_ucq :
  ?method_:answer_method ->
  ?plan:plan ->
  t ->
  Logic.Ucq.t ->
  Relational.Value.t list list
(** Consistent answers under S-repairs to a union of conjunctive
    queries, a single query being its one-disjunct case.  [`Auto]
    (default) executes {!plan_ucq}'s route (see {!route}).  [plan], when
    given, must be {!plan_ucq} of an engine with the same constraints
    for the same query (an engine and its updates share theirs);
    [`Auto] and [`Key_rewriting] then use it instead of classifying the
    query again.  Whether the rewriting declines on NULLs is still
    decided per read.  [`Sat] forces the SAT backend ({!Cavsat.Certain})
    — exact on any denial-class input, raising [Invalid_argument] on
    inclusion dependencies.  [`Key_rewriting] raises [Invalid_argument]
    when not applicable, with the classifier's witness in the message;
    [`Residue_rewriting] answers whatever its (incomplete) rewriting
    produces — see {!Rewriting.Residue_rewrite}. *)

val consistent_answers :
  ?method_:answer_method ->
  ?plan:plan ->
  t ->
  Logic.Cq.t ->
  Relational.Value.t list list
(** {!consistent_answers_ucq} of the one-disjunct union
    ({!Logic.Ucq.of_cq}); [plan] is the query's {!plan}. *)

val method_route : answer_method -> string
(** The branch a forced method executes ([`Sat]: ["sat_compilation"],
    [`Asp]: ["asp"], ...; ["auto"] for [`Auto], whose branch is
    {!plan_ucq}'s route).  The label {!consistent_answers_ucq} reports
    to [Obs.Progress.set_branch]. *)

val c_branch : string
(** ["asp_c"]: the branch {!consistent_answers_c} reports. *)

val consistent_answers_c : t -> Logic.Ucq.t -> Relational.Value.t list list
(** Consistent answers under C-repairs (ASP with weak constraints). *)

val s_repairs : t -> Repairs.Repair.t list
val c_repairs : t -> Repairs.Repair.t list

val inconsistency_degree : t -> float
(** The repair-based measure (denial-class constraints only). *)

val causes : t -> Logic.Cq.t -> Causality.Cause.t list
(** Actual causes for a Boolean query being true, ignoring the engine's
    ICs (the Section 7 setting). *)

val conflict_graph : t -> Constraints.Conflict_graph.t

val optimal_repair :
  weight:(Relational.Tid.t -> float) -> t -> Repairs.Repair.t option
(** Maximum-weight repair (Livshits–Kimelfeld–Roy); denial-class only. *)

val aggregate_range :
  t -> rel:string -> Repairs.Aggregate.agg -> Repairs.Aggregate.range
(** Range-consistent aggregate answer over all repairs. *)

val count_s_repairs : t -> int
val count_c_repairs : t -> int
