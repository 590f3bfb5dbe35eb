(** The instance-level half of the CAvSAT encoding: a CNF theory whose
    models are exactly the S-repairs of a (instance, denial-class
    constraints) pair, over one Boolean variable per conflicting tuple
    ("the tuple is kept").  Independence clauses come from the cached
    conflict hypergraph; maximality clauses pin models to *maximal*
    independent sets, so certainty tested against the theory agrees
    with repair enumeration.

    Built once per (instance digest × constraints) through {!cached}
    and shared by all answer candidates — the incremental solver inside
    keeps the indexed theory; {!Certain} rolls each candidate's clauses
    back after its solve, so the solver stays at its [base] size. *)

type stats = { vars : int; clauses : int; conflict_edges : int }

type t = {
  solver : Sat.Dpll.Incremental.t;
  var_of_tid : (int, int) Hashtbl.t;
      (** Conflicting tuples (by tid integer) to their solver variables;
          a tuple absent here is in no conflict. *)
  no_repairs : bool;
      (** Some constraint is violated by the empty binding: the instance
          has no S-repairs, so no answer is certain. *)
  base : stats;  (** Size of the theory as built, before any query. *)
  lock : Mutex.t;
      (** Serializes candidate probes on the shared solver. *)
}

val build :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> t
(** Raises [Invalid_argument] (via the conflict graph) when the
    constraint set is not denial-class. *)

val cached :
  Relational.Instance.t -> Relational.Schema.t -> Constraints.Ic.t list -> t
(** {!build} through a small bounded memo keyed by instance digest and
    {!Constraints.Conflict_graph.fingerprint} (equal keys imply equal
    constraint lists), verified against the cached instance before
    reuse.  Counters: [cavsat.theory_builds], [cavsat.theory_cache_hits]. *)

val var_for : t -> Relational.Tid.t -> int option
(** The solver variable of a conflicting tuple; [None] for tuples
    outside every conflict (kept by all repairs). *)
