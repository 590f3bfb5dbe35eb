(** Hierarchical execution spans — the tracing half of [lib/obs].

    A span covers one stretch of work (a query evaluation, a repair
    enumeration, a grounding); spans nest by dynamic scope, building the
    tree that {!Export.tree}/{!Export.chrome} render.  One process-global
    sink collects completed spans while tracing is on.

    Two probe styles:
    - [start]/[finish] — zero-allocation; when tracing is off, [start]
      returns {!none} and both are no-ops.  Use on hot paths, guarding
      exceptions by hand.
    - [with_span] — exception-safe; the closure argument may allocate at
      the call site, so keep it off the hottest loops.

    The sink is bounded ([limit], default 100k spans); spans past the
    bound are counted in {!dropped} rather than kept. *)

type span = {
  id : int;  (** 1-based, in start order *)
  parent : int;  (** 0 for a root span *)
  name : string;
  mutable attrs : (string * string) list;  (** reverse addition order *)
  t0 : float;  (** start, seconds, monotone across spans *)
  mutable t1 : float;  (** end; [neg_infinity] while open *)
}

type id

val none : id
(** The token [start] returns while tracing is off; [finish none] is a
    no-op. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val start : string -> id
(** Open a span as a child of the innermost open span.  Constant-time
    and allocation-free when tracing is off. *)

val start_phase : string -> id
(** {!start}, then enter the {!Progress} phase of the same name (one
    heartbeat when a progress context is armed).  The probe for the
    points where a request enters a solver phase; allocation-free when
    tracing is off and no context is armed. *)

val finish : id -> unit
(** Close the span, and defensively any children still open inside it.
    Ignores tokens that are not on the current stack (e.g. across a
    {!collect} boundary). *)

val attr : string -> string -> unit
(** Attach [k=v] to the innermost open span; no-op when tracing is off
    or no span is open. *)

val attr_int : string -> int -> unit
(** Like {!attr}; the int renders only when tracing is on, so the call
    is allocation-free when off. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the closure inside a span, closing it on normal return and on
    exception. *)

val spans : unit -> span list
(** Completed spans of the current sink, in start order. *)

val clear : unit -> unit
(** Empty the sink (open spans are discarded too). *)

val drain : unit -> span list
(** Completed spans in start order, removing them from the sink; open
    spans and the id sequence are kept, so later drains stay
    consistent. *)

val dropped : unit -> int
(** Spans discarded because the sink hit its limit. *)

val collect : ?limit:int -> (unit -> 'a) -> 'a * span list
(** Run the closure with tracing enabled into a fresh private sink and
    return its completed spans; the previous sink and enabled flag are
    restored afterwards (also on exception, where spans are lost). *)

val duration : span -> float
(** [t1 - t0]; 0 for a span that never finished. *)
