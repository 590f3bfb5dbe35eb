(** Relational database instances under set semantics.

    An instance is an immutable set of {!Fact.t}s over a {!Schema.t}, with
    each present fact addressed by a unique {!Tid.t} (facts and tids are in
    bijection, as in the paper's use of global tuple identifiers in Example
    3.5).  All mutation operations return new instances, which makes repair
    search — exploring many nearby consistent instances — cheap and safe.

    Representation: a flat {e base} plus a persistent {e overlay}.  The
    base is built in bulk ({!of_array}, {!of_facts}, {!of_rows}, and so
    every parsed document): a tid-indexed fact array, per-relation tid
    and row arrays, and a read-only fact-to-tid hash index, never written
    once built, so concurrent readers share it.  [insert], [delete] and
    [update_cell] write only to the overlay — persistent maps of the
    facts written since, plus the set of deleted base tids — so a loaded
    instance with a few writes pays for persistent structures on those
    writes alone.  {!create} starts from an empty base.  Every operation
    below reads both halves, merged in tid order. *)

type t

val create : Schema.t -> t
val schema : t -> Schema.t

val insert : t -> Fact.t -> t * Tid.t
(** Set semantics: inserting a fact that is already present is a no-op that
    returns the existing tid.  Raises [Invalid_argument] on an undeclared
    relation or an arity mismatch. *)

val insert_row : t -> rel:string -> Value.t list -> t * Tid.t
val add : t -> Fact.t -> t
(** [add] is [insert] discarding the tid. *)

val add_all : t -> Fact.t list -> t

val delete : t -> Tid.t -> t
(** No-op if the tid is absent. *)

val delete_fact : t -> Fact.t -> t

val update_cell : t -> Tid.Cell.t -> Value.t -> t
(** Attribute-level update (paper, Section 4.3): replace the value at
    1-based position [cell.pos] of the tuple addressed by [cell.tid].  The
    updated tuple keeps its tid unless the update makes it collide with an
    already-present fact, in which case the two merge (set semantics) and
    the updated tid disappears.  Raises [Not_found] if the tid is absent and
    [Invalid_argument] if the position is out of range. *)

val fact_of : t -> Tid.t -> Fact.t
(** Raises [Not_found]. *)

val find_fact : t -> Tid.t -> Fact.t option
val tid_of : t -> Fact.t -> Tid.t option
val mem_fact : t -> Fact.t -> bool
val mem_tid : t -> Tid.t -> bool

val tuples : t -> rel:string -> (Tid.t * Value.t array) list
(** All tuples of one relation, in tid order, in O(|rel|): read off the
    relation's own base arrays and overlay map, with no lookup per
    tuple.  Empty list
    for a declared relation with no tuples; raises [Invalid_argument] on
    an undeclared relation. *)

val rows : t -> rel:string -> Value.t array list

val tid_column : string
(** Name of the synthetic leading column of {!columnar} views holding
    the tuple identifiers (as [Int]s): ["#tid"]. *)

val columnar : t -> rel:string -> Columnar.t
(** The relation's columnar snapshot: {!tid_column} followed by the
    schema attributes, rows in tid order (same contents, order and
    column representations as {!Columnar.of_rows} over {!tuples}).
    A relation no write touched reads the base's tid and row arrays as
    they are.  Built lazily in one pass over the relation's rows ({!Column.of_rows}:
    unboxed [int] cells, [Column.of_values] only for a column holding a
    non-[Int] cell), memoized per instance version, and invalidated per
    relation by [insert]/[delete]/[update_cell] — the views of the other
    relations carry over.  Each build counts one [columnar.builds].
    Raises [Invalid_argument] on an undeclared relation. *)

val facts : t -> Fact.Set.t
val fact_list : t -> Fact.t list
val tids : t -> Tid.Set.t
val size : t -> int
(** Number of facts, in O(1): a count kept by every update. *)

val cardinality : t -> rel:string -> int
(** Number of facts of one relation; 0 for an undeclared one. *)

val restrict : t -> Tid.Set.t -> t
(** Keep only the facts addressed by the given tids (used to build
    sub-instances, e.g. repairs obtained by deletions). *)

val of_array : Schema.t -> Fact.t array -> t
(** The instance holding the facts in array order, as if inserted one
    by one from {!create}: tids [1, 2, ...] in first-occurrence order, a
    repeated fact takes no tid.  Built in bulk, in time linear in the
    array.  The instance takes the array over: the caller must not
    write it afterwards.  Raises [Invalid_argument] as {!insert} does. *)

val of_facts : Schema.t -> Fact.t list -> t
val of_rows : Schema.t -> (string * Value.t list list) list -> t
(** Both build in bulk, like {!of_array}. *)

val equal : t -> t -> bool
(** Equality of fact sets (schemas assumed compatible). *)

val equal_with_tids : t -> t -> bool
(** Equality of (tid, fact) maps: same facts under the same tids.  Strictly
    finer than {!equal} — instances with equal fact sets built in different
    insertion orders differ here.  This is the right verification for
    caches of tid-level structures (conflict graphs). *)

val subset : t -> t -> bool
val symmetric_difference : t -> t -> Fact.Set.t

val active_domain : t -> Value.t list
(** All distinct non-null values occurring in the instance, sorted. *)

val fold_facts : (Tid.t -> Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val pp : Format.formatter -> t -> unit

val digest : t -> int
(** Content digest (xor of per-(tid, fact) hashes mixed with the
    cardinality), maintained incrementally across updates.  Digest equality
    is a cache key, not a proof: verify with {!equal_with_tids} (or
    {!equal}, for fact-set-level consumers) before trusting it. *)
