(** The Koutris–Wijsen attack graph for self-join-free conjunctive queries
    under primary keys (PAPER.md Section 3; Koutris & Wijsen, JACM 2017).

    Nodes are the query's body atoms (by index into [q.body]).  For an atom
    [F], the closure [F^{+,q}] collects every variable functionally
    determined by [key(F)] together with the free variables — free
    variables act as constants throughout — under the functional
    dependencies [key(G) -> vars(G)] of the {e other} atoms.  [F] attacks
    [G] when some chain of atoms links a variable of [F] to a variable of
    [G] entirely outside [F^{+,q}].  An attack [F ⇝ G] is {e weak} when
    the full dependency set [K(q)] already implies [key(F) -> key(G)], and
    {e strong} otherwise.

    The trichotomy: an acyclic attack graph means CERTAINTY(q) is
    FO-rewritable; a cycle whose every 2-cycle contains a weak attack
    leaves the query in PTIME (L-complete); a 2-cycle with both attacks
    strong is a sound coNP-hardness witness (the lower-bound reduction
    builds exactly that configuration).

    All functions here are symbolic — query-sized, no data touched. *)

type attack = { source : int; target : int; strong : bool }
(** [source] attacks [target]; indices into [q.body]. *)

type cycle =
  | Strong_pair of int * int
      (** A 2-cycle with both attacks strong: coNP-hardness witness. *)
  | Weak of int list
      (** A cycle (atom indices, in order) every 2-cycle of which carries a
          weak attack: PTIME (L-complete) per the trichotomy, but the
          recursive Datalog rewriting for this tier is not implemented
          here. *)

type t = {
  attacks : attack list;  (** Sorted by (source, target). *)
  cycle : cycle option;  (** [None] iff the attack graph is acyclic. *)
  order : int list option;
      (** An unattacked-atom elimination order (atom indices): at each
          step the next atom is unattacked within the remaining subquery,
          with the variables of already-eliminated atoms treated as
          constants.  Present iff the graph is acyclic. *)
}

val analyze : Logic.Cq.t -> keys:(string * int list) list -> t
(** Precondition: [q] is self-join-free and safe, and [keys] covers every
    body relation (as produced by {!Classify.rewrite_keys}).  Violations do
    not raise; they make the result meaningless, so callers gate on the
    structural checks first. *)

val atom_rel : Logic.Cq.t -> int -> string
(** Relation name of the atom at that body index. *)

val key_positions : (string * int list) list -> Logic.Atom.t -> int list
(** The atom's key positions; every position when [keys] has no entry
    for its relation (an unrepaired relation is its own key). *)

(** {1 Saturation}

    A query is unsaturated when [K(q) \ {key(F) -> vars(F)}] already
    implies an "internal" dependency [key(F) -> y] for a non-key variable
    [y] of [F].  Following the FO-reduction of Koutris–Wijsen (and
    snippet 1's "rules at the start of the Datalog program"), saturation
    materializes each such dependency as a fresh helper atom
    [N(key(F), y)] defined by projecting the join of the whole query body
    over the {e raw} database.  [N] carries a whole-tuple key, so it is
    consistent in every instance and inert in the attack graph (its
    variables all co-occur in [F] already), and
    [CERTAINTY(q) = CERTAINTY(q ∧ N(key(F), y))]: a certain match lies in
    every repair, hence in the database, hence its projection is in [N];
    conversely any match of the extended query drops the conjunct.

    The graph-{e refining} use of internal dependencies (keying [N] on
    [key(F)] to shrink attack sets, Koutris–Wijsen 2019) is future work;
    here saturation is a sound, equivalence-preserving preprocessing step
    surfaced in the analysis trace; the rewriting inlines each helper atom
    as its defining body. *)

type derived_fd = {
  atom : int;  (** Index of [F] in [q.body]. *)
  rel : string;  (** Relation of [F]. *)
  key : string list;  (** The key variables of [F]. *)
  var : string;  (** The internally determined non-key variable [y]. *)
  path : string list;
      (** Relations whose dependencies fired to derive [y], in order. *)
}

type saturation = {
  squery : Logic.Cq.t;  (** [q] with the helper atoms appended. *)
  skeys : (string * int list) list;
      (** [keys] plus a whole-tuple key per helper relation. *)
  rules : Datalog.Rule.t list;
      (** Defining rules for the helper predicates over the raw EDB. *)
  derived : derived_fd list;
}

val saturate :
  Logic.Cq.t -> keys:(string * int list) list -> saturation option
(** [None] when every internal dependency is trivial (the query is already
    saturated).  Same preconditions as {!analyze}. *)

val describe_fd : derived_fd -> string
(** One line, e.g. ["T: key(c) -> z via R -> S"]. *)

(** {1 Rewriting input} *)

type rewriting_input = {
  query : Logic.Cq.t;  (** The (saturated) query handed to the rewriter. *)
  keys : (string * int list) list;
  prefix : Datalog.Rule.t list;
      (** Defining rules of the helper atoms, possibly empty. *)
  order : int list;  (** Elimination order over [query.body]. *)
  fds : derived_fd list;  (** The internal dependencies materialized. *)
}

val rewriting_input :
  ?graph:t -> Logic.Cq.t -> keys:(string * int list) list -> rewriting_input option
(** The full preprocessing pipeline for {!Rewriting.Key_rewrite}:
    checks self-join-freeness, safety and a non-empty body, saturates,
    and computes the elimination order.  [graph] is [analyze q ~keys]
    when the caller already has it.  [None] when the attack graph is
    cyclic or a precondition fails. *)
