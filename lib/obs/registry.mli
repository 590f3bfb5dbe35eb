(** Named counters, gauges and latency histograms — the telemetry half
    of [lib/obs].

    A registry is a plain value; the solver stack writes through the
    {e current} registry, which a service owner (the server handler, a
    test) can swap with {!set_current}.  Swapping bumps an epoch so that
    the cached cells inside {!Counter} handles re-resolve on their next
    use — probes never write into a registry nobody is watching. *)

type t

val create : unit -> t

val current : unit -> t
(** The registry solver probes write into right now. *)

val set_current : t -> unit
(** Install [t] as the current registry and bump the swap epoch. *)

val swap_epoch : unit -> int
(** Monotone epoch, bumped by every {!set_current}; {!Counter} handles
    compare it to decide whether their cached cell is still valid. *)

(** {1 Counters} *)

val counter_cell : t -> string -> int ref
(** The cell for a named counter, created at zero on first use.  Prefer
    {!Counter.make}/{!Counter.incr} on hot paths. *)

val counter_value : t -> string -> int
(** Zero when the counter was never touched. *)

val counters_list : t -> (string * int) list
(** All counters, sorted by name. *)

val counter_snapshot : t -> (string * int) list
(** Same as {!counters_list}; pair it with {!counter_delta} to meter one
    request. *)

val counter_delta : since:(string * int) list -> t -> (string * int) list
(** Counters whose value changed since the snapshot, with the change. *)

type counter_baseline

val counter_baseline : ?reuse:counter_baseline -> t -> counter_baseline
(** A cheap point-in-time capture of every counter (one int array over
    the registry's cached cell table — no per-counter allocation).  The
    per-request metering path: take one before dispatch, read the
    changes after with {!counter_delta_since}.  Passing the previous
    capture as [reuse] refreshes it in place (zero allocation) when the
    cell table has not changed; the returned value must then replace the
    caller's reference, as it may or may not be [reuse] itself. *)

val counter_delta_since : counter_baseline -> t -> (string * int) list
(** Counters whose value moved since the baseline, sorted by name;
    allocates only for the movers.  Counters created after the baseline
    are reported in full. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float option
val gauges_list : t -> (string * float) list

(** {1 Histograms} *)

type histogram

val histogram : ?bounds:float array -> t -> string -> histogram
(** The named histogram, created on first use.  [bounds] are strictly
    increasing upper bounds in seconds (default: decades from 1 µs to
    10 s); one overflow bucket is appended. *)

val make_histogram : unit -> histogram
(** A decade histogram that belongs to no registry: for owners that
    drop histograms again (the workload store's evictable entries),
    since a registry never forgets a name. *)

val observe : histogram -> float -> unit
(** Count one value in the first bucket whose bound is [>=] it, so a
    value equal to a bound is in that bound's [le] bucket. *)

val hist_count : histogram -> int
val hist_mean : histogram -> float

val hist_sum : histogram -> float
(** Sum of every observed value, in seconds. *)

val hist_bounds : histogram -> float array
(** A copy of the upper bounds (seconds, strictly increasing); the
    implicit overflow bucket is not included. *)

val hist_raw_buckets : histogram -> int array
(** A copy of the per-bucket (non-cumulative) counts; one longer than
    {!hist_bounds}, the last entry being the overflow bucket. *)

val quantile : histogram -> float -> float
(** Estimated q-quantile in seconds: linear interpolation inside the
    covering bucket; the unbounded overflow bucket reports its lower
    bound.  0 on an empty histogram. *)

val histograms_list : t -> (string * histogram) list

val render_histogram : string -> histogram -> string
(** One line:
    [name count=N mean_us=M p50_us=A p95_us=B p99_us=C hist=le_1us:0,...]. *)

val render : t -> string list
(** One [name value] line per counter and gauge and one
    {!render_histogram} line per histogram, merged and sorted by name —
    the order is deterministic, so dumps diff stably. *)
