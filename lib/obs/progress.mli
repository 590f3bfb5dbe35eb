(** In-flight introspection: progress heartbeats, cooperative per-request
    deadlines, and a bounded flight recorder of recent snapshots.

    A request installs a context with {!run}; solver inner loops call the
    probes.  With no context installed ({!armed} [= false]) every probe
    is a single load and branch — zero allocation, like {!Trace}.  When a
    deadline blows, {!tick} raises {!Deadline_exceeded} from inside the
    loop doing the work (including chunks on [Par] worker domains, which
    see the same ambient context); {!phase} records heartbeats but never
    raises. *)

exception Deadline_exceeded

type snapshot = {
  at : float;  (** seconds since the request started *)
  s_phase : string;
  s_work : int;
  s_bound : int;  (** -1 when no bound is known *)
}

type t

(** [create ~label ~id ()] makes a fresh context.  [deadline_s] is a
    relative budget in seconds (default: none); [ring] bounds the flight
    recorder (default 32 snapshots); [clock] defaults to wall time and
    is stubbable for tests. *)
val create :
  ?deadline_s:float ->
  ?ring:int ->
  ?clock:(unit -> float) ->
  ?now:float ->
  ?session:string ->
  label:string ->
  id:int ->
  unit ->
  t

(** Install [c] as the ambient context (registered in the in-flight
    table), run [f], restore the previous context.  Exception-safe;
    contexts may nest. *)
val run : t -> (unit -> 'a) -> 'a

(* Probes — no-ops when no context is installed. *)

(** One unit of work.  Every [check_interval] ticks: heartbeat + deadline
    check; raises {!Deadline_exceeded} once the deadline has blown. *)
val tick : unit -> unit

(** Enter a named phase; heartbeats unconditionally, never raises.
    Solver code enters phases through {!Trace.start_phase}, so that a
    phase is always the name of the span it opened. *)
val phase : string -> unit

(** Report a best-known (minimization) bound; keeps the smallest. *)
val bound : int -> unit

(** Record the plan branch chosen by the engine. *)
val set_branch : string -> unit

val armed : unit -> bool
val active : unit -> t option

(** [true] exactly for {!Deadline_exceeded} — used by [Par] to classify
    cancelled chunks. *)
val is_cancel : exn -> bool

(* Introspection. *)

(** Live contexts, oldest request id first. *)
val inflight : unit -> t list

val id : t -> int
val label : t -> string
val session : t -> string
val branch : t -> string
val phase_of : t -> string
val work : t -> int
val started : t -> float
val cancelled : t -> bool

(** The relative budget, if any. *)
val budget_s : t -> float option

val elapsed : ?now:float -> t -> float

(** The latest state as a snapshot (independent of the ring). *)
val snapshot : t -> snapshot

(** Flight recorder contents, oldest first. *)
val history : t -> snapshot list

val describe : ?now:float -> t -> string
val history_lines : t -> string list

(** ["-"] for the no-bound sentinel [-1], the number otherwise. *)
val pp_bound : int -> string

(** Ticks between deadline checks (default 64).  Tests set 1 to force a
    check on every tick; clamped to at least 1. *)
val set_check_interval : int -> unit

val check_interval : unit -> int
