(** Sessions: named, resident {!Cqa.Engine} instances.

    A session binds a client-chosen id to a loaded document and the
    engine built over it.  Sessions outlive connections — that is the
    point of the serving layer: the parse and engine construction cost is
    paid once per LOAD and amortized over many requests.  Each session
    carries a digest (the memoization key prefix, see {!Handler}) and
    remembers which cache keys were inserted on its behalf so an UPDATE
    can invalidate exactly them.

    The digest contract: LOAD sets it to a content digest of the
    document ({!digest_of}); each UPDATE that changes the instance
    advances it by one hash-chain link over the changed fact.  Equal
    digests imply equal documents (up to MD5 collisions), so a cache hit
    is always sound; equal documents need not share a digest — two
    histories reaching the same content only miss each other's
    entries. *)

type t = {
  id : string;
  mutable doc : Cqa.Parse.document;
  mutable engine : Cqa.Engine.t;
  mutable digest : string;
      (** Hex MD5; see the digest contract above. *)
  cache_keys : (string, unit) Hashtbl.t;
}

type store

val create_store : unit -> store
val count : store -> int

val load : store -> id:string -> Cqa.Parse.document -> t
(** Create or replace the session named [id].  When a resident session
    has the same digest and its instance holds the same facts under the
    same tids ({!Relational.Instance.equal_with_tids}), the new session
    shares that instance: its SAT reads then find the cached theory by
    physical equality instead of comparing instances on every read.  A
    document with the same facts in another row order (same digest,
    other tids) keeps its own instance. *)

val find : store -> string -> t option

val close : store -> string -> bool
(** [false] if no such session. *)

val ids : store -> string list
(** Sorted, for STATS output. *)

val resident_facts : store -> int
(** Total facts held by resident instances across all sessions — the
    [sessions.resident_facts] gauge. *)

val tracked_keys : store -> int
(** Cache keys currently recorded against any session (each is an entry
    an UPDATE would invalidate) — the [sessions.tracked_keys] gauge. *)

val digest_of : Cqa.Parse.document -> string
(** The LOAD digest: hex MD5 over a ["load"]-tagged, injective encoding
    of the schema, the constraints, the query definitions and the fact
    set (row order aside).  Every constant is encoded with its type, so
    documents that differ only in [1] vs ["1"] digest apart.  Two
    sessions loaded with equal documents share cache entries. *)

val remember_key : t -> string -> unit
(** Record that a cache entry with this key was inserted for this
    session. *)

val take_keys : t -> string list
(** The recorded cache keys; clears the record. *)

val apply_update :
  t -> op:[ `Add | `Del ] -> rel:string -> Relational.Value.t list ->
  (unit, string) result
(** Insert or delete one fact, take the next engine from
    {!Cqa.Engine.update} (so the first SAT read after it patches the
    cached theory instead of rebuilding it) and advance the
    digest to [MD5("update" ‖ old digest ‖ op ‖ fact)] — O(|fact|), the
    document is not re-hashed.  Adding a present fact or deleting an
    absent one changes nothing: [doc], [engine] and [digest] are left as
    they were, so cache entries under the digest stay valid.  Errors
    (unknown relation, arity mismatch) leave the session unchanged. *)
