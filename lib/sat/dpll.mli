(** A DPLL SAT solver with unit propagation, model enumeration and
    branch-and-bound cardinality minimization.

    One persistent solver serves every SAT reduction in the repo:
    stable-model checking ([Asp.Stable]), minimum hitting sets and hence
    C-repairs ({!Hitting_set}), and the CAvSAT certainty check
    ([Cavsat.Certain]), which shares one repair theory across all answer
    candidates.  Clauses and fresh variables can be added between calls;
    the clause store and occurrence lists grow in place, so a clause is
    indexed once.  Every call searches all clauses added so far, under
    per-call assumption literals.  {!mark} and {!rollback} take back
    everything added after a point, so throwaway probes leave the solver
    as they found it.

    It favours simplicity and correctness over raw speed: propagation
    scans occurrence lists, and branching picks the first unassigned
    variable of the shortest unsatisfied clause.  Counters live under
    [sat.dpll.*]. *)

type t

type model = bool array
(** Indexed by variable number; index 0 is unused. *)

type mark
(** A point in the solver's history: its clause count, variable count,
    learned-clause count and root unsatisfiability. *)

val create : unit -> t

val fresh_var : t -> int
(** Allocate the next variable number. *)

val reserve : t -> int -> unit
(** Ensure the variable range covers the given number. *)

val add_clause : t -> int list -> unit
(** Add a clause (non-zero literals; variables beyond the range are
    reserved).  The empty clause marks the solver permanently
    unsatisfiable (until a {!rollback} to a mark taken before it).
    Raises [Invalid_argument] on literal 0. *)

val mark : t -> mark

val rollback : t -> mark -> unit
(** Restore the solver to the mark: clauses added since (learned
    refutations included) leave the clause store and the occurrence
    lists, variables allocated since are released for reuse, and the
    learned-clause count and root unsatisfiability return to their
    values at the mark.  Cost is linear in the size of the clauses
    removed.  Raises [Invalid_argument] if the solver was rolled back
    past the mark already. *)

val nvars : t -> int
val nclauses : t -> int

val learned_clauses : t -> int
(** Number of assumption-refutation clauses currently in the solver:
    every refutation {!solve} retained so far, minus those a {!rollback}
    removed. *)

(** {2 Solving}

    Every call below starts from the blank assignment and blanks it
    again on every exit, including a deadline ([Obs.Progress]) raised
    mid-search, so the solver stays reusable. *)

val solve : ?assumptions:int list -> t -> model option
(** One satisfying assignment under the assumption literals, or [None]
    if unsatisfiable (including when the assumptions conflict).  On
    [None] with non-empty assumptions the clause of their negations is
    added to the solver (it is implied), so a refuted single-literal
    assumption behaves like a retired selector.  Counted in
    [sat.dpll.solves]. *)

val satisfiable : ?assumptions:int list -> t -> bool

val enumerate :
  ?assumptions:int list -> ?limit:int -> ?project:int list -> t ->
  model list
(** All models, deduplicated on the projection variables (all variables by
    default).  [limit] caps the number of models returned. *)

val count : ?assumptions:int list -> ?project:int list -> t -> int

val minimize_weighted :
  ?assumptions:int list -> soft:(int * float) list -> t ->
  (float * model) option
(** A model minimizing the total weight of the soft variables assigned
    true.  Weights must be non-negative; they hold for this call only. *)

val minimize :
  ?assumptions:int list -> soft:int list -> t -> (int * model) option
(** A model minimizing the number of [soft] variables assigned true,
    together with that number.  Branch and bound: soft variables are
    branched false-first and partial assignments whose soft cost already
    reaches the incumbent are pruned. *)

val model_true_vars : model -> int list
