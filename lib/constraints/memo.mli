(** A small bounded memo of per-(instance, constraints) builds, shared by
    the conflict-graph and SAT-theory caches.

    Entries are keyed by the instance digest and the constraints'
    {!fingerprint}.  The digest is a hash, so a hit is only trusted after
    verifying the cached instance: by physical equality first (the same
    [Instance.t] flowing through one pipeline), then by
    [Instance.equal_with_tids], after which the entry is filed under
    the instance it was verified for, so the next lookup with it is a
    physical hit and the instance the entry was built for is no longer
    kept alive.  The most recently used entry comes first
    and a hit moves its entry to the front, so an instance a session
    keeps returning to is not evicted by unrelated builds.  Domain-safe:
    a mutex guards the entry list; builds run outside it. *)

type 'a t

val create : hits:Obs.Counter.t -> ?misses:Obs.Counter.t -> unit -> 'a t
(** An empty memo holding at most 8 entries; every hit bumps [hits],
    every miss [misses] (when given). *)

val fingerprint : Ic.t list -> string
(** A cache key for a constraint list: equal fingerprints imply equal
    constraint lists (constants compared with their types, CFD patterns
    included).  Only meaningful within one process. *)

val find_or_build :
  ?patch:Relational.Instance.t * ('a -> 'a option) ->
  'a t -> Relational.Instance.t -> Ic.t list -> (unit -> 'a) -> 'a
(** The cached value for this instance and constraint list, or the
    result of the thunk, which is then cached in front, evicting the
    least recently used entry when the memo is full.  On a miss with
    [patch = (base, f)], the entry held for [base] (same constraints)
    moves to the new key instead: it is taken out of the memo, and when
    [f] turns its value into [Some v], [v] is cached in front and
    counted as a hit; on [None], or with no entry for [base], the thunk
    runs.  Taken out first, the base's value is never handed to another
    lookup while [f] changes it. *)
