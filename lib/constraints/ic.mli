(** Integrity constraints.

    The classes the paper works with:
    - {b key constraints} and {b functional dependencies} (Examples 3.3–3.4),
    - {b inclusion dependencies} / tuple-generating dependencies, with or
      without existential variables in the head (Examples 2.1 and 4.3),
    - {b denial constraints} (Example 3.5),
    - {b conditional functional dependencies} (Section 6).

    Attribute positions are 0-based.  Keys, FDs and CFDs compile into denial
    constraints; inclusion dependencies do not (repairing them may require
    insertions) and are treated separately by the repair semantics. *)

type denial = { name : string; atoms : Logic.Atom.t list; comps : Logic.Cmp.t list }
(** [¬∃x̄ (atoms ∧ comps)].  Variables are implicit. *)

type fd = { rel : string; lhs : int list; rhs : int list }
(** [rel : lhs → rhs]. *)

type ind = {
  sub : string * int list;
  sup : string * int list;
}
(** [sub = (R, ps)], [sup = (S, qs)]: ∀x̄ (R(..) → ∃ȳ S(..)) where the
    [ps]-projection of R must appear as the [qs]-projection of some S-tuple.
    Positions of S outside [qs] are existential (the paper's tgd (7)). *)

type pattern = (int * Relational.Value.t option) list
(** CFD pattern over attribute positions: [Some c] demands the constant [c],
    [None] is the wildcard ['_']. *)

type cfd = { rel : string; lhs : int list; rhs : int list; pat : pattern }
(** FD [lhs → rhs] restricted to tuples matching the [lhs] part of [pat];
    constants in the [rhs] part additionally force those values. *)

type t =
  | Denial of denial
  | Fd of fd
  | Key of string * int list
  | Ind of ind
  | Cfd of cfd

val denial : ?name:string -> ?comps:Logic.Cmp.t list -> Logic.Atom.t list -> t
val fd : rel:string -> lhs:int list -> rhs:int list -> t
val key : rel:string -> int list -> t
val ind : sub:string * int list -> sup:string * int list -> t
val cfd : rel:string -> lhs:int list -> rhs:int list -> pat:pattern -> t

val name : t -> string

val of_formula : ?name:string -> Logic.Formula.t -> t list option
(** Constraints from a universal first-order sentence: the formula is put
    in clausal form ({!Logic.Clause.of_formula}); clauses without positive
    atoms become denial constraints.  Returns [None] when the formula has
    no clausal form or some clause has a positive atom (a
    generating dependency, not expressible as a denial). *)

val key_to_fd : Relational.Schema.t -> string -> int list -> fd
(** A key determines all remaining attributes. *)

val as_fd : Relational.Schema.t -> t -> fd option
(** A key or an FD as the FD it is ({!key_to_fd} for keys); [None] for
    every other class. *)

val to_denials : Relational.Schema.t -> t -> denial list option
(** The equivalent set of denial constraints, or [None] for inclusion
    dependencies (which are not denials). *)

val is_denial_class : t -> bool

val to_clauses : Relational.Schema.t -> t -> Logic.Clause.t list
(** Clausal form for the residue-based rewriting.  A denial
    [¬∃(A ∧ c)] becomes [¬A1 ∨ ... ∨ ¬An ∨ ¬c]; an IND without existential
    head variables becomes [¬R(x̄) ∨ S(ȳ)].  INDs with existential variables
    have no clausal form over the schema and yield []. *)

val pp : Format.formatter -> t -> unit
