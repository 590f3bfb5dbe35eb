(** Candidate answers with witnesses.

    The candidate answers of a conjunctive query on an inconsistent
    instance are its plain answers; each comes with the distinct tid
    sets of the body matches ("witnesses") producing it.  A candidate
    holds in a repair iff some witness tid set is contained in it, which
    is exactly what the SAT encoding needs to assert "no surviving
    witness".

    The witness sets of all candidates live in one flat int arena, read
    straight off the compiled body's [#tid<i>] columns: no set, list or
    array is built per match.  A set is the distinct tids of one match,
    ascending (a self-join matching one tuple twice yields a single
    tid). *)

type t = private {
  tids : int array;  (** the sets, concatenated *)
  width : int;
      (** [k >= 0]: every set has [k] tids (the body's [k] atoms matched
          [k] distinct tuples every time), set [i] is
          [tids.(i*k) .. tids.(i*k + k - 1)] and [offs] is empty;
          [-1]: the sets vary in size and [offs] delimits them *)
  offs : int array;
      (** when [width < 0], set [i] is [tids.(offs.(i)) .. tids.(offs.(i+1) - 1)] *)
}
(** The arena: exactly as large as the distinct sets it holds.  An
    atomless body ([k = 0]) has one empty set per candidate. *)

type candidate = { row : Relational.Value.t list; first : int; last : int }
(** An answer row and its witness sets, the arena's sets [first] to
    [last - 1] ([first < last]). *)

val start : t -> int -> int
(** The arena position of set [i]'s first tid. *)

val stop : t -> int -> int
(** One past the arena position of set [i]'s last tid. *)

val sets : t -> candidate -> Relational.Tid.Sorted.t list
(** A candidate's witness sets as fresh arrays, for tests and oracles. *)

val answers_with_witnesses :
  Logic.Cq.t -> Relational.Instance.t -> t * candidate list
(** Distinct answer rows in sorted order (matching [Cq.answers]), each
    with at least one witness set.  A candidate's sets are distinct and
    in {!Relational.Tid.Sorted.compare} order.  A Boolean query yields
    the empty row when its body is satisfiable.

    The compiled body's rows are sorted into a stride-[k] array as
    they are read.  When every match has [k] distinct tids and the rows
    arrive strictly ascending in (answer, set) order, that array is the
    arena, with no offsets.  Otherwise the distinct sets are copied into
    an exact-size arena, through a sorted index permutation only when
    the rows are out of order.  Only a head with variables decodes
    values (to rank the answers); a Boolean head decodes none. *)

val of_ucq : Logic.Ucq.t -> Relational.Instance.t -> t * candidate list
(** {!answers_with_witnesses} of a union: its disjuncts' candidates
    merged by row, a row's sets those of every disjunct producing it
    (distinct and in {!Relational.Tid.Sorted.compare} order).  Of one
    disjunct, that disjunct's arena and candidates as they are. *)
