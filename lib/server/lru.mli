(** A capacity-bounded least-recently-used cache.

    The serving layer memoizes certain answers, repair counts and
    inconsistency measures keyed by session digest × semantics × query
    (see {!Handler}); this module is the generic bounded store underneath.
    [find] and [add] both count as a use and promote the entry to
    most-recently-used; once [length] would exceed [capacity] the
    least-recently-used entry is evicted.  All operations are O(1). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used on a hit. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without promotion. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, promoting to most-recently-used; evicts the
    least-recently-used entry when the cache is full. *)

val remove : ('k, 'v) t -> 'k -> unit
(** No-op if the key is absent. *)

val clear : ('k, 'v) t -> unit

val evictions : ('k, 'v) t -> int
(** Entries dropped by capacity pressure since [create] (not counting
    explicit [remove]/[clear]). *)

val keys : ('k, 'v) t -> 'k list
(** Most-recently-used first; for tests and introspection. *)
