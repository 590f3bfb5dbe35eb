(** The cqa-serve wire protocol: line-oriented requests and responses.

    Requests are single lines (LOAD is followed by a document payload
    terminated by a lone ["."] line):

    {v
    LOAD <sid>                   % then Cqa.Parse document lines, then "."
    QUERY <sid> <name> [method=auto|enum|rewriting|key-rewriting|asp|sat]
                       [semantics=s|c] [timeout=ms]
    CHECK <sid>
    REPAIRS <sid> [s|c]
    MEASURE <sid>
    UPDATE <sid> add|del <Rel>(<v1>, ..., <vk>)
    STATS
    METRICS
    TRACE on|off
    EXPLAIN <sid> <name> [method=auto|enum|rewriting|key-rewriting|asp|sat]
                         [semantics=s|c] [timeout=ms]
    ANALYZE <sid> [<query-name>]
    WORKLOAD [TOP <n> | BY branch | RESET]
    INFLIGHT
    CLOSE <sid>
    QUIT
    v}

    [timeout=ms] sets a per-request deadline: a request whose budget
    blows is cancelled cooperatively and answered with a structured
    [ERR deadline ...] carrying the last progress snapshot.  INFLIGHT
    lists the requests currently executing (id, session, plan branch,
    phase, heartbeat age).

    Every response is a status line — [OK <head>] or [ERR <message>] —
    followed by zero or more data lines and a terminating lone ["."]
    line, so clients always read up to the first ["."]. *)

type semantics = S | C

type method_ = Auto | Enum | Rewriting | Key_rewriting | Asp | Sat

type command =
  | Load of string  (** session id; the document payload follows *)
  | Query of {
      sid : string;
      name : string;
      method_ : method_;
      semantics : semantics;
      timeout_ms : float option;  (** per-request deadline budget *)
    }
  | Check of string
  | Repairs of { sid : string; semantics : semantics }
  | Measure of string
  | Update of {
      sid : string;
      op : [ `Add | `Del ];
      rel : string;
      values : Relational.Value.t list;
    }
  | Stats
  | Metrics
      (** METRICS: the registry in Prometheus text exposition, same
          document the [--metrics-port] HTTP listener serves *)
  | Trace of bool  (** TRACE on|off: toggle span collection server-wide *)
  | Explain of {
      sid : string;
      name : string;
      method_ : method_;
      semantics : semantics;
      timeout_ms : float option;
    }  (** EXPLAIN: run the query traced and report spans + counters *)
  | Analyze of { sid : string; name : string option }
      (** ANALYZE: static analysis of the session's constraints, repair
          program and queries — or of one named query *)
  | Workload of [ `Summary | `Top of int | `By_branch | `Reset ]
      (** WORKLOAD: the fingerprint statements store — summary counters,
          top-[n] fingerprints by total wall time, per-plan-branch cost
          centers, or reset *)
  | Inflight
      (** INFLIGHT: one line per request currently executing — request
          id, command, session, plan branch, phase, work done, heartbeat
          age and time to deadline *)
  | Close of string
  | Quit

val parse : string -> (command, string) result
(** Parse one request line.  Keywords are case-insensitive; value tokens
    in UPDATE follow the conventions of {!Cqa.Parse} (all-digit tokens are
    integers, [null] is the SQL null, double-quoted strings keep their
    spelling, everything else is a string constant).  Never raises: any
    malformed request is reported as [Error]. *)

val command_label : command -> string
(** The metrics label, e.g. ["QUERY"]. *)

val terminator : string
(** The lone ["."] line ending payloads and responses. *)

type response = { status : [ `Ok | `Err ]; head : string; body : string list }

val ok : ?body:string list -> string -> response
val err : string -> response

val clamp : ?max_lines:int -> response -> response
(** Framing safety.  Body elements are first split into physical lines
    (an element carrying embedded newlines counts as — and is clamped
    as — the lines it puts on the wire); lines equal to {!terminator}
    are indented so they cannot end the response early; and bodies
    longer than [max_lines] physical lines (default 10,000) are
    truncated on a line boundary with a final
    ["...truncated (K of N lines)"] marker line, so machine consumers
    never see a torn line. *)

val render : response -> string
(** The full wire text of a response, ["\n"]-terminated lines including
    the final terminator. *)
