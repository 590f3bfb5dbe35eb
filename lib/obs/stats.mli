(** Workload introspection — a bounded, deterministic statements store in
    the spirit of [pg_stat_statements], the fourth leg of [lib/obs] next
    to spans ({!Trace}), metrics ({!Registry}) and events ({!Events}).

    The serving layer records every finished request under a {e query
    fingerprint} (a normalized query shape computed by the caller — see
    [Cqa.Fingerprint]) and the {e plan branch} it executed
    ([direct] / [key_rewriting] / [sat_compilation] /
    [repair_enumeration] / ...).  Per (fingerprint, branch) the store
    aggregates calls, a latency histogram, cache hits/misses, rows
    returned, solver-counter deltas, and per-phase time derived from the
    request's span tree ({!phases_of_spans}).

    The store is capacity-bounded with {e deterministic} eviction: when
    a new fingerprint arrives at capacity, the entry with the least
    total wall time goes (ties broken lexicographically), so two
    replays of the same request stream always leave the same store.
    Evicted time is still accounted in the totals, which is what lets
    {!summary_lines} report the attributed fraction honestly.

    Plan-branch and phase cost centers are additionally aggregated in
    eviction-proof side tables, rendered as labeled Prometheus
    histograms by {!prometheus_lines}. *)

type t

val create : ?capacity:int -> unit -> t
(** A store keeping at most [capacity] (fingerprint, branch) entries
    (default 256, minimum 1). *)

type cache_outcome = Hit | Miss | Uncached

val record :
  t ->
  fingerprint:string ->
  branch:string ->
  wall_s:float ->
  ?rows:int ->
  ?cache:cache_outcome ->
  ?error:bool ->
  ?phases:(string * float) list ->
  ?counters:(string * int) list ->
  unit ->
  unit
(** Fold one finished request into the store.  [phases] are per-phase
    seconds (typically {!phases_of_spans} of the request's span tree);
    [counters] are the solver-counter deltas the request caused. *)

(** {1 Phase attribution}

    Per-phase time is derived from the span tree a request left behind:
    every span contributes its {e self} time (duration minus children)
    to the phase its name maps to, inheriting the nearest ancestor's
    phase when the name maps to none.  The result is an exact partition
    of the root spans' wall time — no double counting across nested
    phases (a DPLL solve inside a CAvSAT compilation is all [sat]). *)

val phase_of_span : string -> string option
(** The cost center of a span name, by the first matching prefix:
    [classify] ([engine.classify]), [rewrite] ([rewrite.*]),
    [conflict_graph], [sat] ([sat.*], [cavsat.*]), [enumeration]
    ([repairs.*]), [asp] ([asp.*]); [None] for anything else
    (attributed to the enclosing phase, or [other]).  Phase names
    reported by {!Progress} are span names too ({!Trace.start_phase}),
    so this also maps a flight-recorder phase to its cost center. *)

val phases_of_spans : Trace.span list -> (string * float) list
(** Per-phase seconds, sorted by phase name; empty for an empty tree.
    The spans must come in start (id) order, as {!Trace.collect}
    returns them; one pass, linear in the spans.  A span whose parent
    is missing from the list counts as a root. *)

(** {1 Inspection} *)

type entry = {
  fingerprint : string;
  branch : string;
  mutable calls : int;
  mutable errors : int;
  mutable wall_s : float;  (** total wall time, seconds *)
  mutable max_s : float;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable rows : int;  (** total rows returned *)
  mutable phase_s : (string * float) list;  (** sorted by phase *)
  mutable counters : (string * int) list;  (** sorted by counter name *)
  latency : Registry.histogram;  (** per-call wall, decade buckets *)
}

val length : t -> int
(** Live (fingerprint, branch) entries. *)

val recorded : t -> int
(** Requests folded in since creation (evictions included). *)

val evicted : t -> int

val total_wall_s : t -> float
(** All-time recorded wall, evictions included. *)

val attributed_s : t -> float
(** Wall time attributable to live entries; [attributed_s /.
    total_wall_s] is the store's coverage after eviction. *)

val entries : t -> entry list
(** All live entries, by total wall time descending (ties by
    fingerprint then branch — deterministic). *)

val top : t -> int -> entry list

val quantile : entry -> float -> float
(** {!Registry.quantile} of the entry's latency histogram. *)

val reset : t -> unit
(** Empty the store and both cost-center tables; counters restart. *)

(** {1 Rendering} *)

val render_top : t -> int -> string list
(** The [WORKLOAD TOP n] body: numbered entries with wall, calls,
    branch, fingerprint, latency quantiles, cache and row counts, the
    phase split and the solver-counter deltas. *)

val render_by_branch : t -> string list
(** The [WORKLOAD BY branch] body: one cost center per plan branch with
    calls, total/mean wall, share of total, and the phase split.
    Aggregated on the eviction-proof side table. *)

val summary_lines : t -> string list
(** [workload.* ] ["name value"] lines for the STATS [-- workload]
    section: entry count, recorded/evicted, attributed and total wall. *)

val prometheus_lines : t -> string list
(** Labeled histogram families for the metrics endpoint:
    [cqa_workload_branch_seconds{branch="..."}] (request latency per
    plan branch) and [cqa_workload_phase_seconds{phase="..."}]
    (per-request phase time), cumulative buckets with [+Inf] = count. *)

val to_json : t -> string
(** The stats dump: one JSON object
    [{"capacity":..,"recorded":..,"evicted":..,"total_wall_s":..,
    "attributed_wall_s":..,"entries":[...],"branches":[...]}] —
    the input of [cqa report]. *)
