(** A DPLL SAT solver with unit propagation, model enumeration and
    branch-and-bound cardinality minimization.

    One persistent solver serves every SAT reduction in the repo:
    stable-model checking ([Asp.Stable]), minimum hitting sets and hence
    C-repairs ({!Hitting_set}), and the CAvSAT certainty check
    ([Cavsat.Certain]), which shares one repair theory across all answer
    candidates.  Clauses and fresh variables can be added between calls;
    the clause store and occurrence store grow in place, so a clause is
    indexed once.  Every call searches all clauses added so far, under
    per-call assumption literals.  {!mark} and {!rollback} take back
    everything added after a point, and {!probe} solves without
    learning, so throwaway probes leave the solver as they found it.
    {!remove_clause} takes back one clause for good: a theory kept
    across updates ([Cavsat.Theory]) drops the clauses of deleted
    conflicts that way.

    The occurrence store holds, per literal, an int vector of the
    indices of the clauses containing it, in the order they were added;
    propagation visits it newest first.  Adding a clause appends one
    entry per literal, and a vector doubles its capacity when full and
    keeps it across rollbacks, so a warm solver adds and rolls back
    clauses without allocating.

    It favours simplicity and correctness over raw speed: propagation
    scans occurrence vectors, and branching picks the first unassigned
    variable of the shortest unsatisfied clause.  Both scans are plain
    loops over the clause arrays: visiting a clause allocates nothing,
    so a solve's garbage is its model and the per-call bookkeeping, not
    a function of the clauses it reads.  Counters live under
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

val add_clause : t -> int array -> unit
(** Add a clause (non-zero literals; variables beyond the range are
    reserved).  The solver keeps the array itself as the clause, with no
    copy: the caller must not write to it afterwards.  A non-empty
    clause gets the index {!nclauses} had before the call.  The empty
    clause takes no index; it marks the solver permanently
    unsatisfiable (until a {!rollback} to a mark taken before it).
    Raises [Invalid_argument] on literal 0. *)

val add_clause_list : t -> int list -> unit
(** {!add_clause} of the list's literals, in order. *)

val remove_clause : t -> int -> unit
(** Remove the clause with this index: it leaves the occurrence store,
    so propagation and branching no longer see it.  Its slot stays, so
    no other clause's index moves, {!nclauses} does not drop, and the
    solver never compacts itself; removing a removed clause does
    nothing.  Removal is a base-level operation: a {!rollback} to a mark
    taken before the removal does not restore the clause (rolling back
    past the clause's own addition drops its slot).  Cost is linear in
    the occurrence vectors of its literals (the younger entries shift
    down, keeping their order).  Raises [Invalid_argument] on
    an index outside [0, nclauses), and while the solver holds a learned
    refutation ({!learned_clauses} > 0): it may rest on the clause. *)

val mark : t -> mark

val rollback : t -> mark -> unit
(** Restore the solver to the mark: clauses added since (learned
    refutations included) leave the clause store and the occurrence
    store (clauses removed before the mark stay removed), variables
    allocated since are released for reuse, and the learned-clause
    count and root unsatisfiability return to their values at the mark.
    A clause added after the mark holds the last entry of each of its
    literals' occurrence vectors, so it leaves them with one length
    decrement per literal: cost is linear in the size of the clauses
    rolled back, and nothing is allocated.  Raises [Invalid_argument] if the solver was rolled back
    past the mark already. *)

val nvars : t -> int

val nclauses : t -> int
(** Clause slots in use, removed ones included. *)

val removed_clauses : t -> int
(** Slots whose clause was removed. *)

val clauses : t -> int list list
(** The live clauses (removed ones skipped), in index order. *)

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

val probe : t -> int array -> int -> bool
(** [probe t lits n]: is the formula satisfiable under the assumption
    literals [lits.(0) … lits.(n-1)]?  The same search as {!solve}, with
    the same counters and [sat.dpll.solve] span, but no model is built
    and nothing is learned: on UNSAT no refutation clause is added, so
    the solver is left exactly as it was found.  This is the call for a
    throwaway probe whose own clauses are rolled back after it
    ([Cavsat.Certain]); a refutation kept by {!solve} would only be
    rolled back with them.  The caller's array is read, not kept. *)

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
