(** Request execution over a session store, with memoization and metrics.

    Certain answers (QUERY), repair counts (REPAIRS) and inconsistency
    measures (MEASURE) are memoized in a shared capacity-bounded
    {!Lru} cache keyed by session digest × semantics/method × query
    (see {!Session.digest_of}), so equal documents loaded under different
    session ids share entries.  An UPDATE that changes the instance
    advances the session's digest {e and} eagerly drops the entries
    inserted on the session's behalf; a no-op UPDATE keeps both.  CHECK
    is answered directly — it is the cheap baseline the cache is
    measured against.

    Execution failures (unknown session, unknown query, inapplicable
    method, malformed payloads) are returned as [ERR] responses; they
    never raise, so a misbehaving request cannot kill the session or the
    connection that sent it. *)

type t

val create :
  ?cache_capacity:int ->
  ?max_body_lines:int ->
  ?on_trace:(Obs.Trace.span list -> unit) ->
  ?events:Obs.Events.sink ->
  ?slow_ms:float ->
  ?stats:Obs.Stats.t ->
  ?sampler:Obs.Sampler.t ->
  ?default_timeout_ms:float ->
  ?progress:bool ->
  ?version:string ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [cache_capacity] defaults to 512 entries.  [max_body_lines] bounds
    every response body (see {!Protocol.clamp}; default 10,000 lines).
    [on_trace] receives the spans each request leaves in the global sink
    while TRACE is on (the server streams them to [--trace-dir]).

    [events] is the structured JSONL event log: every request emits a
    ["request"] record carrying its id, command, status and latency.
    [slow_ms] arms the slow-query log — session-touching commands run
    under a private span collection (which, like [--trace-dir], forces
    sequential execution), and any request over the threshold emits a
    ["slow_query"] record with the span tree and counter deltas.
    [clock] (default [Unix.gettimeofday]) is what latencies are measured
    with; tests stub it.

    [stats] arms workload introspection: every finished request is
    folded into the {!Obs.Stats} store under its query fingerprint
    ([Cqa.Fingerprint], qualified by semantics) and plan branch — other
    commands under their command label on the ["service"] branch — with
    cache outcome, rows, per-phase time from the span tree, and solver
    counter deltas.  Read back with the WORKLOAD command, the
    [-- workload] STATS section, and the [cqa_workload_*] metrics
    families.  [sampler] arms tail-sampled tracing: each request's span
    tree is offered to the {!Obs.Sampler} ring and retained only for
    error, over-threshold, or reservoir-sampled requests.  Either one
    (like [slow_ms]) runs session-touching commands under the private
    span collection.  [version] labels the [cqa_build_info] gauge.

    [progress] (default [false]) arms an {!Obs.Progress} context around
    every session-touching request: solver heartbeats feed the INFLIGHT
    command, the [inflight.*] gauges, a per-request flight recorder
    (dumped by EXPLAIN and the slow-query log), and cooperative
    deadlines — a request whose [timeout=ms] option (or, failing that,
    [default_timeout_ms]) expires is cancelled at the next probe and
    answered with a structured [ERR deadline ...] carrying the final
    snapshot.  The loop and [cqa_server] arm it by default.

    Creation installs the handler's metrics registry as the
    process-current {!Obs.Registry}, so solver counters land in the same
    STATS dump as request metrics. *)

val metrics : t -> Metrics.t
val sessions : t -> Session.store
val cache_length : t -> int

val stats : t -> Obs.Stats.t option
(** The workload store, when armed — the server dumps it on shutdown. *)

val sampler : t -> Obs.Sampler.t option
(** The tail-sampling ring, when armed — flushed alongside the event
    log on shutdown. *)

val sample_gauges : t -> unit
(** Refresh the runtime gauges in the metrics registry: [gc.*]
    ({!Obs.Runtime.sample_gc}), [par.*] ({!Par.sample_gauges}),
    [sessions.count]/[sessions.resident_facts]/[sessions.tracked_keys],
    and [cache.entries]/[cache.capacity]/[cache.evictions].  The loop
    calls this on its gauge ticker; STATS and METRICS call it before
    rendering. *)

val metrics_text : t -> string
(** {!sample_gauges}, then the whole registry as Prometheus text
    exposition ({!Obs.Prometheus.render}) — the document served on
    [--metrics-port] and by the METRICS command — followed by the
    [cqa_build_info] gauge (version/ocaml_version labels) and, when
    workload stats are armed, the labeled [cqa_workload_*] histogram
    families.  Uptime is in the registry itself as
    [cqa_server_uptime_seconds] (refreshed by {!sample_gauges}). *)

val dispatch : t -> ?payload:string list -> Protocol.command -> Protocol.response
(** Execute one parsed command, recording request count and latency.
    [payload] is the document text for LOAD (ignored otherwise).  The
    response is passed through {!Protocol.clamp} before being returned,
    so it always respects line-protocol framing. *)

val parse_failure : t -> string -> Protocol.response
(** The [ERR] response for an unparseable request line, recorded in the
    metrics. *)

val handle_line : t -> ?payload:string list -> string -> Protocol.response
(** [parse] + [dispatch]/[parse_failure] — the one-call entry point used
    by tests and by the event loop for non-LOAD commands. *)
