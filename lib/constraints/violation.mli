(** Violation detection with tuple-level witnesses.

    A witness records which tuples (tids) jointly violate a constraint —
    exactly the hyperedges of the conflict hypergraph (paper, Figure 1). *)

type witness = {
  ic_name : string;
  tids : Relational.Tid.Set.t;
  binding : Logic.Binding.t;
  matched : (Relational.Tid.t * Logic.Atom.t) list;
      (** Which tuple matched which body atom, in body order (needed by
          attribute-level repairs to locate the cells that can break the
          violation).  Empty for IND witnesses. *)
}

val of_denial : Relational.Instance.t -> Ic.denial -> witness list
(** All distinct violating tuple sets of one denial constraint, each with
    a representative match's binding. *)

val tid_sets :
  ?pinned:Relational.Tid.t ->
  Relational.Instance.t -> Ic.denial -> Relational.Tid.Sorted.t list
(** The tid set of every match of one denial's body, read straight off
    the compiled body's tid columns with no binding built.  Repeats
    included (a symmetric body matches each conflict once per
    automorphism), in no particular order; an atomless body violated by
    its ground comparisons yields one empty set.  With [pinned], only
    matches containing that tuple: one run per body atom over its
    relation, with that atom's scan filtered to the tuple (none if the
    tuple is absent). *)

val fd_conflicts :
  ?pinned:Relational.Tid.t ->
  Relational.Instance.t -> Ic.fd ->
  (Relational.Tid.t -> Relational.Tid.t -> int -> unit) -> unit
(** The conflicting pairs of a key or FD, found by grouping the rows of
    the relation's columnar view by their lhs codes (rows with a NULL lhs
    cell in no group), not by a self-join.  [emit lo hi k] is called once
    per pair of tuples of one group that differ, both non-NULL, at [k > 0]
    rhs positions (repeats in [rhs] counted), with [lo < hi]; [k] is the
    number of the FD's denials ({!Ic.to_denials}) the pair violates.
    Rows already grouped (checked in one pass) are not sorted; otherwise
    a stable radix sort groups them, so groups keep tid order.  With
    [pinned], only the pairs containing that tuple are emitted, from one
    scan of its group (none if it is absent from the relation).
    Raises [Invalid_argument] on a position outside the relation. *)

val of_ind : Relational.Instance.t -> Ic.ind -> Relational.Tid.t list
(** Tids of sub-relation tuples with no matching sup-relation tuple. *)

val of_ic :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t -> witness list
(** Witnesses for any constraint; an IND violation is a singleton witness
    for the dangling tuple (deleting it is one way to restore consistency;
    inserting a matching tuple is the other — see lib/repairs). *)

val all :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> witness list

val count :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> int
(** [List.length (all inst schema ics)] with no witness built: keys and
    FDs through {!fd_conflicts}, other denials as their distinct
    {!tid_sets}, INDs as their dangling tuples. *)

val is_consistent :
  Relational.Instance.t -> Relational.Schema.t -> Ic.t list -> bool

val pp_witness : Format.formatter -> witness -> unit
