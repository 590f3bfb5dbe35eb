(** Prometheus text exposition (format version 0.0.4) over a
    {!Registry}.

    The registry's dotted metric names ([sat.decisions],
    [latency_query]) are mangled into the Prometheus name grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*] and prefixed with a namespace
    ([cqa_] by default); label values are escaped per the exposition
    rules (backslash, double quote and newline).  Counters and gauges
    render as single samples under a [# TYPE] header; histograms render
    as cumulative [_bucket] series labelled by [le] plus [_sum] and
    [_count], with the registry's per-bucket counts accumulated so
    every [le] series is monotone and the [+Inf] bucket equals
    [_count]. *)

val mangle_name : string -> string
(** Rewrite into a valid metric name: every character outside
    [[a-zA-Z0-9_:]] becomes [_], a leading digit gains a [_] prefix,
    and the empty string becomes ["_"].  Idempotent. *)

val mangle_label_name : string -> string
(** Like {!mangle_name} but for label names, whose grammar also
    excludes [:]; a leading [__] (reserved by Prometheus) is prefixed
    with [x].  Idempotent. *)

val escape_label_value : string -> string
(** Escape a label value for use inside a label assignment: backslash,
    double quote and newline gain a backslash prefix (newline becomes
    backslash-n). *)

val unescape_label_value : string -> string
(** Inverse of {!escape_label_value};
    [unescape_label_value (escape_label_value s) = s] for every [s]. *)

val number : float -> string
(** A float in a form every Prometheus parser accepts ([%.12g], with
    [+Inf]/[-Inf]/[NaN] spelled the Prometheus way). *)

val sample : ?labels:(string * string) list -> string -> string -> string
(** [sample name value] is one exposition line: the mangled name, the
    optional brace-wrapped label assignments (label names mangled,
    values quoted and escaped), and [value] — passed through verbatim
    so the caller controls integer vs float formatting. *)

val histogram_samples :
  labels:(string * string) list -> string -> Registry.histogram -> string list
(** The sample lines of one histogram series, without a [# TYPE]
    header: cumulative [name_bucket] lines, one per bound and a final
    [le="+Inf"], then [name_sum] and [name_count].  [labels] go on every
    line, ahead of [le]. *)

val render : ?namespace:string -> Registry.t -> string
(** The whole registry as one exposition document (trailing newline
    included), families sorted by name for stable diffs.  [namespace]
    (default ["cqa_"]) prefixes every metric name.  Counters map to
    [counter], gauges to [gauge], histograms to [histogram] with
    seconds-valued [le] bounds. *)
