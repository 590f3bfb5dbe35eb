(** A DPLL SAT solver with unit propagation, model enumeration and
    branch-and-bound cardinality minimization.

    This is the search substrate behind stable-model checking (lib/asp),
    minimum-cardinality repairs and SAT-based hitting sets (lib/repairs).
    It favours simplicity and correctness over raw speed: propagation scans
    occurrence lists, and branching picks the first unassigned variable of
    the shortest unsatisfied clause. *)

type model = bool array
(** Indexed by variable number; index 0 is unused. *)

val solve : ?assumptions:int list -> Cnf.t -> model option
(** One satisfying assignment, or [None] if unsatisfiable (including when
    the assumptions conflict). *)

val satisfiable : ?assumptions:int list -> Cnf.t -> bool

val enumerate :
  ?assumptions:int list -> ?limit:int -> ?project:int list -> Cnf.t ->
  model list
(** All models, deduplicated on the projection variables (all variables by
    default).  [limit] caps the number of models returned. *)

val count : ?assumptions:int list -> ?project:int list -> Cnf.t -> int

val minimize_weighted :
  ?assumptions:int list -> soft:(int * float) list -> Cnf.t ->
  (float * model) option
(** A model minimizing the total weight of the soft variables assigned
    true.  Weights must be non-negative. *)

val minimize :
  ?assumptions:int list -> soft:int list -> Cnf.t -> (int * model) option
(** A model minimizing the number of [soft] variables assigned true,
    together with that number.  Branch and bound: soft variables are
    branched false-first and partial assignments whose soft cost already
    reaches the incumbent are pruned. *)

val model_true_vars : model -> int list

(** Incremental solving: a persistent solver that accepts clauses and
    fresh variables between calls and solves under per-call assumption
    literals.  The clause store and occurrence lists grow in place, so
    clauses added once (e.g. the conflict-graph theory a lib/cavsat
    certainty check shares across all answer candidates) are indexed
    once.  A call that is unsatisfiable under non-empty assumptions
    retains the implied clause over the negated assumptions
    (learned-clause retention); {!Incremental.mark} and
    {!Incremental.rollback} take back everything added after a point, so
    throwaway probes leave the solver as they found it.  Counters live
    under [sat.dpll.*]. *)
module Incremental : sig
  type t

  type mark
  (** A point in the solver's history: its clause count, variable count,
      learned-clause count and root unsatisfiability. *)

  val create : unit -> t

  val fresh_var : t -> int
  (** Allocate the next variable number. *)

  val reserve : t -> int -> unit
  (** Ensure the variable range covers the given number. *)

  val add_clause : t -> int list -> unit
  (** Add a clause (non-zero literals).  The empty clause marks the
      solver permanently unsatisfiable (until a {!rollback} to a mark
      taken before it). *)

  val mark : t -> mark

  val rollback : t -> mark -> unit
  (** Restore the solver to the mark: clauses added since (learned
      refutations included) leave the clause store and the occurrence
      lists, variables allocated since are released for reuse, and the
      learned-clause count and root unsatisfiability return to their
      values at the mark.  Cost is linear in the size of the clauses
      removed.  Raises [Invalid_argument] if the solver was rolled back
      past the mark already. *)

  val solve : ?assumptions:int list -> t -> model option
  (** One satisfying assignment of all clauses added so far under the
      assumption literals, or [None].  On [None] with non-empty
      assumptions the clause of their negations is added to the solver
      (it is implied), so a refuted single-literal assumption behaves
      like a retired selector.  Exception-safe: a deadline
      ([Obs.Progress]) raised mid-search leaves the solver blank and
      reusable. *)

  val satisfiable : ?assumptions:int list -> t -> bool

  val nvars : t -> int
  val nclauses : t -> int

  val learned_clauses : t -> int
  (** Number of assumption-refutation clauses currently in the solver:
      every refutation retained so far, minus those a {!rollback}
      removed (the count returns to its value at the mark). *)
end
