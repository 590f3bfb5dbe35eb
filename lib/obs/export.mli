(** Exporters for collected {!Trace.span}s, plus the hand-rolled JSON
    string helpers they (and the benchmarks) share.  [lib/obs] has no
    JSON dependency by design. *)

val json_string : string -> string
(** A quoted, escaped JSON string literal. *)

val tree : Trace.span list -> string list
(** Indented span tree: one line per span —
    [name duration k=v ...] — children indented two spaces under their
    parent.  Spans whose parent is absent from the list render as
    roots. *)

val jsonl : Trace.span list -> string list
(** One JSON object per span:
    [{"id":..,"parent":..,"name":..,"ts_us":..,"dur_us":..,"attrs":{..}}],
    timestamps relative to the earliest span. *)

val chrome : Trace.span list -> string
(** The whole list as one Chrome [trace_event] JSON document (open in
    chrome://tracing or Perfetto).  Spans become balanced, properly
    nested B/E duration-event pairs. *)
