(** Stable models (answer sets) of disjunctive programs, with weak
    constraints — the semantics the paper's repair programs rely on:
    stable models of a repair program correspond one-to-one to repairs
    (Section 3.3), and weak constraints select the C-repair models
    (Example 4.2).

    The computation goes through the SAT substrate: candidate models are
    classical models of the ground rules; a candidate M is stable iff M is
    a minimal model of the Gelfond–Lifschitz reduct P^M, which is checked
    with a second SAT query for a strictly smaller model of the reduct. *)

type model = Relational.Fact.Set.t

val models : Syntax.t -> Relational.Fact.t list -> model list
(** Ground then solve. *)

val optimal_models : Syntax.t -> Relational.Fact.t list -> (int * model) list
(** Stable models minimizing the total weight of violated weak constraints,
    each with that violation weight (all returned models share the minimum
    weight; [(0, m)] when there are no weak constraints).  Empty when the
    program has no stable model. *)
