(** Residues of integrity constraints against query atoms — the semantic
    query optimization machinery of Chakravarthy, Grant and Minker that the
    paper's Section 2 turns into the first CQA rewriting.

    Resolving a (positive) query atom with a negative literal of an IC
    clause leaves the remaining literals as a residue: a condition implied
    for every tuple the atom retrieves.  Example 2.2: resolving
    [Supply(x,y,z)] with [¬Supply(x,y,z) ∨ Articles(z)] leaves the residue
    [Articles(z)]; Example 3.4: resolving [Employee(x,y)] with the key
    clause leaves [∀z (¬Employee(x,z) ∨ y = z)]. *)

val of_clause : ?suffix:string -> Atom.t -> Clause.t -> Formula.t list
(** [of_clause atom clause] returns one residue per negative literal of
    [clause] that unifies with [atom].  The clause is standardized apart
    with [suffix] (default ["'"]) before unification.  Every residue has
    one shape, [Forall (ū, L1 ∨ … ∨ Lk)]: the clause variables not bound
    to the atom's own terms are [ū] (possibly none), and a binding [x = t]
    the unifier imposes on an atom variable (a constant in the clause)
    is the literal [x ≠ t] among the [Li].  Read two-valued, the residue
    says the tuple takes part in no definite violation: a NULL where the
    constraint needs a definite match refutes nothing. *)

val for_atom : ?suffix:string -> Atom.t -> Clause.t list -> Formula.t list
(** All residues of a set of IC clauses against one atom. *)
