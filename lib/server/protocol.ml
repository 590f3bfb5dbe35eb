module Value = Relational.Value

type semantics = S | C
type method_ = Auto | Enum | Rewriting | Key_rewriting | Asp | Sat

type command =
  | Load of string
  | Query of {
      sid : string;
      name : string;
      method_ : method_;
      semantics : semantics;
      timeout_ms : float option;
    }
  | Check of string
  | Repairs of { sid : string; semantics : semantics }
  | Measure of string
  | Update of {
      sid : string;
      op : [ `Add | `Del ];
      rel : string;
      values : Value.t list;
    }
  | Stats
  | Metrics
  | Trace of bool
  | Explain of {
      sid : string;
      name : string;
      method_ : method_;
      semantics : semantics;
      timeout_ms : float option;
    }
  | Analyze of { sid : string; name : string option }
  | Workload of [ `Summary | `Top of int | `By_branch | `Reset ]
  | Inflight
  | Close of string
  | Quit

let terminator = "."

let ( let* ) = Result.bind

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let semantics_of = function
  | "s" -> Ok S
  | "c" -> Ok C
  | s -> Error (Printf.sprintf "unknown semantics %S (expected s or c)" s)

let method_of = function
  | "auto" -> Ok Auto
  | "enum" -> Ok Enum
  | "rewriting" -> Ok Rewriting
  | "key-rewriting" -> Ok Key_rewriting
  | "asp" -> Ok Asp
  | "sat" -> Ok Sat
  | s -> Error (Printf.sprintf "unknown method %S" s)

(* QUERY options: [method=M], [semantics=S] and [timeout=ms] tokens in
   any order. *)
let rec query_options method_ semantics timeout = function
  | [] -> Ok (method_, semantics, timeout)
  | tok :: rest -> (
      match String.index_opt tok '=' with
      | Some i -> (
          let k = String.sub tok 0 i
          and v = String.sub tok (i + 1) (String.length tok - i - 1) in
          match String.lowercase_ascii k with
          | "method" ->
              let* m = method_of (String.lowercase_ascii v) in
              query_options m semantics timeout rest
          | "semantics" ->
              let* s = semantics_of (String.lowercase_ascii v) in
              query_options method_ s timeout rest
          | "timeout" -> (
              match float_of_string_opt v with
              | Some ms when ms > 0.0 ->
                  query_options method_ semantics (Some ms) rest
              | _ ->
                  Error
                    (Printf.sprintf
                       "bad timeout %S (expected a positive number of \
                        milliseconds)"
                       v))
          | _ -> Error (Printf.sprintf "unknown QUERY option %S" k))
      | None -> Error (Printf.sprintf "unknown QUERY option %S" tok))

let is_all_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* Value tokens follow the Cqa.Parse conventions (plus negative ints and
   decimal reals, which rows written back by a client may contain). *)
let value_of_token tok =
  let n = String.length tok in
  if n >= 2 && tok.[0] = '"' && tok.[n - 1] = '"' then
    Value.str (String.sub tok 1 (n - 2))
  else if String.equal tok "null" then Value.Null
  else if String.equal tok "true" then Value.bool true
  else if String.equal tok "false" then Value.bool false
  else if
    is_all_digits tok
    || (n > 1 && tok.[0] = '-' && is_all_digits (String.sub tok 1 (n - 1)))
  then (
    (* A digit run longer than max_int still has to produce a value, not
       an exception. *)
    match int_of_string_opt tok with
    | Some i -> Value.int i
    | None -> Value.str tok)
  else if String.contains tok '.' then
    match float_of_string_opt tok with
    | Some f -> Value.real f
    | None -> Value.str tok
  else Value.str tok

(* "Rel(v1, v2, ...)" — the row syntax of Cqa.Parse without the leading
   `row` keyword. *)
let fact_of_text text =
  let text = String.trim text in
  match String.index_opt text '(' with
  | None -> Error "expected Rel(v1, ..., vk)"
  | Some i ->
      if String.length text = 0 || text.[String.length text - 1] <> ')' then
        Error "expected Rel(v1, ..., vk)"
      else
        let rel = String.trim (String.sub text 0 i) in
        let inside = String.sub text (i + 1) (String.length text - i - 2) in
        if rel = "" then Error "missing relation name"
        else
          let values =
            if String.trim inside = "" then []
            else
              String.split_on_char ',' inside
              |> List.map (fun tok -> value_of_token (String.trim tok))
          in
          Ok (rel, values)

let parse_exn line =
  let line = String.trim line in
  match split_words line with
  | [] -> Error "empty request"
  | verb :: args -> (
      match (String.uppercase_ascii verb, args) with
      | "LOAD", [ sid ] -> Ok (Load sid)
      | "LOAD", _ -> Error "usage: LOAD <sid>"
      | "QUERY", sid :: name :: opts ->
          let* method_, semantics, timeout_ms = query_options Auto S None opts in
          Ok (Query { sid; name; method_; semantics; timeout_ms })
      | "QUERY", _ ->
          Error
            "usage: QUERY <sid> <name> [method=M] [semantics=S] [timeout=ms]"
      | "CHECK", [ sid ] -> Ok (Check sid)
      | "CHECK", _ -> Error "usage: CHECK <sid>"
      | "REPAIRS", [ sid ] -> Ok (Repairs { sid; semantics = S })
      | "REPAIRS", [ sid; sem ] ->
          let* semantics = semantics_of (String.lowercase_ascii sem) in
          Ok (Repairs { sid; semantics })
      | "REPAIRS", _ -> Error "usage: REPAIRS <sid> [s|c]"
      | "MEASURE", [ sid ] -> Ok (Measure sid)
      | "MEASURE", _ -> Error "usage: MEASURE <sid>"
      | "UPDATE", sid :: op :: rest ->
          let* op =
            match String.lowercase_ascii op with
            | "add" -> Ok `Add
            | "del" -> Ok `Del
            | s -> Error (Printf.sprintf "unknown UPDATE op %S (add or del)" s)
          in
          let* rel, values = fact_of_text (String.concat " " rest) in
          Ok (Update { sid; op; rel; values })
      | "UPDATE", _ -> Error "usage: UPDATE <sid> add|del Rel(v1, ..., vk)"
      | "STATS", [] -> Ok Stats
      | "STATS", _ -> Error "usage: STATS"
      | "METRICS", [] -> Ok Metrics
      | "METRICS", _ -> Error "usage: METRICS"
      | "TRACE", [ flag ] -> (
          match String.lowercase_ascii flag with
          | "on" -> Ok (Trace true)
          | "off" -> Ok (Trace false)
          | s -> Error (Printf.sprintf "unknown TRACE mode %S (on or off)" s))
      | "TRACE", _ -> Error "usage: TRACE on|off"
      | "EXPLAIN", sid :: name :: opts ->
          let* method_, semantics, timeout_ms = query_options Auto S None opts in
          Ok (Explain { sid; name; method_; semantics; timeout_ms })
      | "EXPLAIN", _ ->
          Error
            "usage: EXPLAIN <sid> <name> [method=M] [semantics=S] [timeout=ms]"
      | "WORKLOAD", [] -> Ok (Workload `Summary)
      | "WORKLOAD", [ sub ] -> (
          match String.uppercase_ascii sub with
          | "TOP" -> Ok (Workload (`Top 10))
          | "RESET" -> Ok (Workload `Reset)
          | s -> Error (Printf.sprintf "unknown WORKLOAD mode %S" s))
      | "WORKLOAD", [ sub; arg ] -> (
          match (String.uppercase_ascii sub, arg) with
          | "TOP", n -> (
              match int_of_string_opt n with
              | Some n when n > 0 -> Ok (Workload (`Top n))
              | _ -> Error "usage: WORKLOAD TOP <n>")
          | "BY", b when String.lowercase_ascii b = "branch" ->
              Ok (Workload `By_branch)
          | _ -> Error "usage: WORKLOAD [TOP <n> | BY branch | RESET]")
      | "WORKLOAD", _ -> Error "usage: WORKLOAD [TOP <n> | BY branch | RESET]"
      | "INFLIGHT", [] -> Ok Inflight
      | "INFLIGHT", _ -> Error "usage: INFLIGHT"
      | "ANALYZE", [ sid ] -> Ok (Analyze { sid; name = None })
      | "ANALYZE", [ sid; name ] -> Ok (Analyze { sid; name = Some name })
      | "ANALYZE", _ -> Error "usage: ANALYZE <sid> [<query-name>]"
      | "CLOSE", [ sid ] -> Ok (Close sid)
      | "CLOSE", _ -> Error "usage: CLOSE <sid>"
      | "QUIT", [] -> Ok Quit
      | "QUIT", _ -> Error "usage: QUIT"
      | v, _ -> Error (Printf.sprintf "unknown command %S" v))

(* A malformed request must never raise out of the parser: the loop
   answers every request on the same connection, so an escaping
   exception would take down the whole server. *)
let parse line =
  try parse_exn line
  with e -> Error (Printf.sprintf "malformed request: %s" (Printexc.to_string e))

let command_label = function
  | Load _ -> "LOAD"
  | Query _ -> "QUERY"
  | Check _ -> "CHECK"
  | Repairs _ -> "REPAIRS"
  | Measure _ -> "MEASURE"
  | Update _ -> "UPDATE"
  | Stats -> "STATS"
  | Metrics -> "METRICS"
  | Trace _ -> "TRACE"
  | Explain _ -> "EXPLAIN"
  | Analyze _ -> "ANALYZE"
  | Workload _ -> "WORKLOAD"
  | Inflight -> "INFLIGHT"
  | Close _ -> "CLOSE"
  | Quit -> "QUIT"

type response = { status : [ `Ok | `Err ]; head : string; body : string list }

let ok ?(body = []) head = { status = `Ok; head; body }
let err msg = { status = `Err; head = msg; body = [] }

(* Responses cut down by [clamp] — truncation is otherwise invisible in
   metrics (the client sees the marker line, STATS sees this). *)
let c_clamped = Obs.Counter.make "protocol.clamped_total"

(* Keep a response inside line-protocol framing: a body line equal to the
   terminator would end the response early (readers stop at the first
   lone "."), so it is indented; and bodies longer than [max_lines] are
   cut with an explicit marker so clients can tell truncation from a
   short answer.  Clamping is line-aware: a body element containing
   embedded newlines is split into its physical lines first, so the
   budget counts what actually goes on the wire, an embedded lone "."
   cannot tear the framing, and truncation always falls on a line
   boundary — machine consumers never see a torn line. *)
let clamp ?(max_lines = 10_000) r =
  let safe line = if String.equal line terminator then " ." else line in
  let body =
    (* Split elements carrying embedded newlines into physical lines;
       the common newline-free element passes through unallocated. *)
    if List.exists (fun l -> String.contains l '\n') r.body then
      List.concat_map (String.split_on_char '\n') r.body
    else r.body
  in
  let n = List.length body in
  let body =
    if n <= max_lines then List.map safe body
    else begin
      Obs.Counter.incr c_clamped;
      let rec take k = function
        | x :: rest when k > 0 -> safe x :: take (k - 1) rest
        | _ -> [ Printf.sprintf "...truncated (%d of %d lines)" max_lines n ]
      in
      take max_lines body
    end
  in
  { r with body }

let render { status; head; body } =
  let status_line =
    match status with
    | `Ok -> if head = "" then "OK" else "OK " ^ head
    | `Err -> "ERR " ^ head
  in
  String.concat "\n" ((status_line :: body) @ [ terminator; "" ])
