(** Grounding: instantiate program rules over the derivable atom base.

    The possibly-true atom base is the least fixpoint of the program with
    negation ignored and disjunctive heads read as conjunctions — a standard
    over-approximation of the atoms any stable model can contain.  Rules are
    then instantiated with their positive bodies ranging over that base;
    comparisons are evaluated structurally at grounding time, and negative
    literals on atoms outside the base are dropped as trivially true. *)

type rule = { head : int list; pos : int list; neg : int list }
type weak = { pos : int list; neg : int list; weight : int }

type t = {
  atoms : Relational.Fact.t array; (* id -> atom; ids are 1-based *)
  index : (Relational.Fact.t, int) Hashtbl.t;
  natoms : int;
  rules : rule list;
  weaks : weak list;
}

val ground : Syntax.t -> Relational.Fact.t list -> t
(** [ground program edb]: the EDB facts are added as ground facts. *)

val pp : Format.formatter -> t -> unit
