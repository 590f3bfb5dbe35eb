(** Structured JSONL event log — the third leg of [lib/obs], next to
    spans ({!Trace}) and metrics ({!Registry}).

    A sink turns [emit] calls into one JSON object per line:

    {v
    {"ev":"request","ts_us":1234,"req":7,"command":"QUERY","status":"ok",...}
    v}

    Timestamps ([ts_us], integer microseconds since the sink was
    created) are clamped to be non-decreasing, so the log never runs
    backwards even if the wall clock does.  The sink also hands out the
    per-request ids that the serving layer threads through span
    attributes and event fields, which is what lets a slow-query record
    be joined back to its trace.

    Writes are flushed per line: a sink killed by a signal loses at most
    the line being written. *)

type sink

(** Field values; [Raw] is pre-rendered JSON spliced in verbatim (lists,
    nested objects), everything else is escaped/formatted here. *)
type value = Str of string | Int of int | Float of float | Bool of bool | Raw of string

val make :
  ?clock:(unit -> float) ->
  ?wall:(unit -> float) ->
  ?close:(unit -> unit) ->
  (string -> unit) ->
  sink
(** A sink over a line writer (the line does not include the newline).
    [clock] (default [Unix.gettimeofday]) is stubbed by tests; [wall]
    (default [clock]) is the wall clock {!anchor} reads; [close] runs
    once when {!close} is called. *)

val open_file : ?clock:(unit -> float) -> string -> sink
(** A sink appending to [path], creating it if needed; every line is
    flushed as it is written. *)

val stderr_sink : ?clock:(unit -> float) -> unit -> sink
(** A sink writing lines to standard error. *)

val null : sink
(** Discards everything (still hands out request ids). *)

val emit : sink -> ?req:int -> ?fields:(string * value) list -> string -> unit
(** [emit sink ev] writes one event object with type [ev], the
    monotonic [ts_us], the request id [req] when given, and [fields] in
    order.  Never raises: a failing writer drops the line. *)

val anchor : ?label:string -> sink -> unit
(** Write one ["anchor"] event carrying the {e wall-clock} time as an
    integer [wall_ms] (epoch milliseconds, from the sink's [wall]
    clock).  [ts_us] stays monotonic like every other event; the anchor
    is the bridge that lets logs from different processes — whose
    monotonic origins differ — be correlated on a shared wall clock.
    Emit one at startup and at every flush/rotation point. *)

val emitted : sink -> int
(** Events written so far (for tests and STATS). *)

val close : sink -> unit
(** Run the sink's close hook; idempotent.  Later emits are dropped. *)
