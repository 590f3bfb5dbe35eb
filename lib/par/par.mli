(** Chunked parallel map over OCaml 5 domains.

    [map f xs] behaves exactly like [List.map f xs] — same results, same
    order, exceptions re-raised — but may evaluate [f] on contiguous chunks
    of [xs] on a persistent pool of worker domains (spawned lazily on first
    use, since [Domain.spawn] costs ~1 ms — far more than a typical chunk).
    The degree of parallelism comes from [?jobs], falling back to the
    process-wide default set by {!set_default_jobs} (the [--jobs] flag of
    the executables).

    Work runs sequentially when jobs ≤ 1, when the list is shorter than
    {!parallel_cutoff} (per-task pool hand-off overhead dwarfs tiny
    workloads), or when tracing is enabled ([Obs.Trace]'s span sink is a
    single mutable tree that is not domain-safe; counters are).  Callers
    must only pass an [f] that is safe to run concurrently with itself —
    everything in the repair/ASP hot paths is, because instances are
    persistent and solver state is per-call. *)

val set_default_jobs : int -> unit
(** Set the process-wide default parallelism (clamped to ≥ 1; default 1). *)

val set_parallel_cutoff : int -> unit
(** Minimum list length for {!map} to engage the domain pool (clamped to
    ≥ 2; default 4).  Shorter lists run as plain [List.map] — queueing a
    handful of tasks costs more in lock hand-offs and wake-ups than the
    work itself, a measured ~4x slowdown on two-element repair-enumeration
    workloads. *)

val parallel_cutoff : unit -> int

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  Increments the [par.tasks] counter once
    per chunk handed to the pool (including the chunk the calling domain
    works on itself).  If [f] raises in any chunk, the first (leftmost
    chunk) exception is re-raised with its backtrace after all chunks have
    completed. *)

val filter_map : ?jobs:int -> ('a -> 'b option) -> 'a list -> 'b list

val sample_gauges : Obs.Registry.t -> unit
(** Write the occupancy of the persistent worker pool, for the serving
    layer's runtime gauges, into [registry]: [par.pool_size] (worker
    domains spawned so far; the pool only grows), [par.queue_depth]
    (tasks waiting in the shared queue), [par.busy_workers] (workers
    running a task, excluding the calling domain's own chunk) and
    [par.default_jobs].  Takes the pool lock, so the values are exact
    but it is not for hot loops. *)
