module P = Protocol
module Value = Relational.Value

(* A memoized response.  [route] is the route the engine reported
   running when the entry was computed (see [executed_route]), filled in
   once the request's spans are in, so hits are attributed to it too. *)
type entry = {
  head : string;
  body : string list;
  mutable route : string option;
}

(* What a session's document says about one query name, kept per LOAD
   (see [per_document]): the union it names, its {!Cqa.Engine.plan_ucq}
   (made by the first read that needs it, see [plan]), and its workload
   fingerprints — semantics-qualified, plain and under EXPLAIN, indexed
   by [fingerprint_slot] — so attribution builds no string per
   request. *)
type named = {
  ucq : Logic.Ucq.t;
  mutable plan : Cqa.Engine.plan option;
  fingerprints : string array Lazy.t;
}

type t = {
  sessions : Session.store;
  cache : (string, entry) Lru.t;
  metrics : Metrics.t;
  max_body_lines : int;
  on_trace : (Obs.Trace.span list -> unit) option;
  events : Obs.Events.sink option;
  slow_s : float option; (* slow-query threshold, seconds *)
  clock : unit -> float;
  next_rid : int ref; (* request ids, threaded through events and spans *)
  stats : Obs.Stats.t option; (* fingerprint workload store *)
  sampler : Obs.Sampler.t option; (* tail-sampled trace ring *)
  named :
    ( string * string,
      (string * Logic.Cq.t) list * Constraints.Ic.t list * named option )
    Hashtbl.t;
      (* (sid, query) -> (queries, ics, what the name denotes; [None]:
         no such query), the lists validating the entry by physical
         identity ([per_document]); bounded by periodic reset *)
  mutable last_cache : Obs.Stats.cache_outcome;
      (* what the memo cache did for the request being dispatched *)
  mutable last_entry : entry option;
      (* the memo entry the request being dispatched hit or stored *)
  mutable baseline_scratch : Obs.Registry.counter_baseline option;
      (* previous request's counter capture, recycled in place *)
  default_timeout_s : float option;
      (* deadline applied to session-touching requests that carry no
         timeout= of their own *)
  progress : bool;
      (* arm an Obs.Progress context per session-touching request —
         heartbeats, INFLIGHT, deadlines.  Off by default at this layer
         (handler unit tests script the clock and count its pops); the
         loop and the server arm it. *)
  version : string;
  started : float;
      (* wall-clock at creation, for the uptime gauge; deliberately not
         the stubbable latency clock, whose scripts count dispatches *)
}

let create ?(cache_capacity = 512) ?(max_body_lines = 10_000) ?on_trace ?events
    ?slow_ms ?stats ?sampler ?default_timeout_ms ?(progress = false)
    ?(version = "dev") ?(clock = Unix.gettimeofday) () =
  let metrics = Metrics.create () in
  (* Route the solver counters (sat.dpll.decisions, cavsat.sat_calls,
     repairs.candidates, and friends) into this handler's registry so
     STATS renders request and solver telemetry through one path. *)
  Obs.Registry.set_current (Metrics.registry metrics);
  (* Pre-create the framing-truncation counter so STATS shows
     protocol.clamped_total 0 before the first clamp. *)
  ignore
    (Obs.Registry.counter_cell (Metrics.registry metrics)
       "protocol.clamped_total"
      : int ref);
  {
    sessions = Session.create_store ();
    cache = Lru.create ~capacity:cache_capacity;
    metrics;
    max_body_lines;
    on_trace;
    events;
    slow_s = Option.map (fun ms -> ms /. 1e3) slow_ms;
    clock;
    next_rid = ref 0;
    stats;
    sampler;
    named = Hashtbl.create 64;
    last_cache = Obs.Stats.Uncached;
    last_entry = None;
    baseline_scratch = None;
    default_timeout_s = Option.map (fun ms -> ms /. 1e3) default_timeout_ms;
    progress;
    version;
    started = Unix.gettimeofday ();
  }

let metrics t = t.metrics
let sessions t = t.sessions
let cache_length t = Lru.length t.cache
let stats t = t.stats
let sampler t = t.sampler

(* Refresh the runtime gauges: GC pressure, domain-pool occupancy, and
   the serving layer's own residency numbers.  Called by the loop's
   gauge ticker and before every STATS/METRICS render, so a scrape never
   sees stale values. *)
let sample_gauges t =
  let registry = Metrics.registry t.metrics in
  Obs.Runtime.sample_gc registry;
  Par.sample_gauges registry;
  let g name v = Obs.Registry.set_gauge registry name (float_of_int v) in
  g "sessions.count" (Session.count t.sessions);
  g "sessions.resident_facts" (Session.resident_facts t.sessions);
  g "sessions.tracked_keys" (Session.tracked_keys t.sessions);
  g "cache.entries" (Lru.length t.cache);
  g "cache.capacity" (Lru.capacity t.cache);
  g "cache.evictions" (Lru.evictions t.cache);
  (* The in-flight table: mangles to cqa_inflight_requests /
     cqa_inflight_oldest_seconds on /metrics.  Real wall time, not the
     stubbable latency clock — same policy as the uptime gauge. *)
  let ctxs = Obs.Progress.inflight () in
  g "inflight.requests" (List.length ctxs);
  Obs.Registry.set_gauge registry "inflight.oldest_seconds"
    (match ctxs with
    | [] -> 0.0
    | oldest :: _ ->
        Float.max 0.0 (Unix.gettimeofday () -. Obs.Progress.started oldest));
  (* Mangles to cqa_server_uptime_seconds on /metrics: lets dashboards
     detect restarts without scraping process metrics. *)
  Obs.Registry.set_gauge registry "server.uptime_seconds"
    (Unix.gettimeofday () -. t.started)

let metrics_text t =
  sample_gauges t;
  let base = Obs.Prometheus.render (Metrics.registry t.metrics) in
  (* A constant-1 info gauge whose labels carry the identities a mixed
     fleet is debugged by. *)
  let build =
    [
      "# HELP cqa_build_info Build information; the value is always 1.";
      "# TYPE cqa_build_info gauge";
      Obs.Prometheus.sample
        ~labels:
          [ ("version", t.version); ("ocaml_version", Sys.ocaml_version) ]
        "cqa_build_info" "1";
    ]
  in
  let workload =
    match t.stats with Some s -> Obs.Stats.prometheus_lines s | None -> []
  in
  base ^ String.concat "" (List.map (fun l -> l ^ "\n") (build @ workload))

let method_label : P.method_ -> string = function
  | P.Auto -> "auto"
  | P.Enum -> "enum"
  | P.Rewriting -> "rewriting"
  | P.Key_rewriting -> "key-rewriting"
  | P.Asp -> "asp"
  | P.Sat -> "sat"

let semantics_label : P.semantics -> string = function P.S -> "s" | P.C -> "c"

let engine_method : P.method_ -> Cqa.Engine.answer_method = function
  | P.Auto -> `Auto
  | P.Enum -> `Repair_enumeration
  | P.Rewriting -> `Residue_rewriting
  | P.Key_rewriting -> `Key_rewriting
  | P.Asp -> `Asp
  | P.Sat -> `Sat

let engine_semantics : P.semantics -> [ `S | `C ] = function
  | P.S -> `S
  | P.C -> `C

let with_session t sid f =
  match Session.find t.sessions sid with
  | None -> P.err (Printf.sprintf "unknown session %S (LOAD it first)" sid)
  | Some session -> f session

(* Memoize [compute] under [key]: on a hit the stored response is
   replayed; on a miss the key is recorded against the session so UPDATE
   can drop it eagerly. *)
let cached t session key compute =
  match Lru.find t.cache key with
  | Some e ->
      Metrics.cache_hit t.metrics;
      t.last_cache <- Obs.Stats.Hit;
      t.last_entry <- Some e;
      P.ok ~body:e.body e.head
  | None -> (
      Metrics.cache_miss t.metrics;
      t.last_cache <- Obs.Stats.Miss;
      match compute () with
      | { P.status = `Ok; head; body } ->
          let e = { head; body; route = None } in
          Lru.add t.cache key e;
          Session.remember_key session key;
          t.last_entry <- Some e;
          P.ok ~body head
      | r -> r)

let pp_row = function
  | [] -> "true" (* a Boolean query's positive answer is the empty tuple *)
  | [ v ] -> Value.to_string v
  | row -> String.concat ", " (List.map Value.to_string row)

(* [compute ()] memoized under [key] in [memo] for the session's
   document: NOT under the data digest, since what is memoized depends
   only on the query definitions and the ICs, so a row UPDATE must not
   invalidate it.  The doc's [queries]/[ics] lists keep their physical
   identity across row updates and are rebuilt by LOAD, which is
   exactly the invalidation needed.  Reset rather than evicted when it
   grows (it is tiny relative to its keys). *)
let per_document memo (session : Session.t) key compute =
  let queries = session.doc.queries and ics = session.doc.ics in
  match Hashtbl.find_opt memo key with
  | Some (q0, i0, v) when q0 == queries && i0 == ics -> v
  | _ ->
      let v = compute () in
      if Hashtbl.length memo > 4096 then Hashtbl.reset memo;
      Hashtbl.replace memo key (queries, ics, v);
      v

(* The query [name] of the session's document, per LOAD: a
   cache-missing QUERY classifies it once per LOAD, not once per read
   (re-planning after every update would price each read at a
   classifier pass). *)
let named t (session : Session.t) name =
  per_document t.named session (session.id, name) (fun () ->
      match Cqa.Parse.find_ucq session.doc name with
      | exception Not_found -> None
      | ucq ->
          Some
            {
              ucq;
              plan = None;
              fingerprints =
                lazy
                  (let fp = Cqa.Fingerprint.ucq ucq in
                   [| "s:" ^ fp; "c:" ^ fp; "explain:s:" ^ fp; "explain:c:" ^ fp |]);
            })

(* Planned from the session's engine when first needed; nothing of the
   session is kept, so a memo entry pins no instance. *)
let plan (session : Session.t) n =
  match n.plan with
  | Some p -> p
  | None ->
      let p = Cqa.Engine.plan_ucq session.engine n.ucq in
      n.plan <- Some p;
      p

let fingerprint_slot ~explain semantics =
  (if explain then 2 else 0) + match semantics with P.S -> 0 | P.C -> 1

let exec_query t (session : Session.t) name method_ semantics =
  match named t session name with
  | None ->
      P.err (Printf.sprintf "no query named %S in session %S" name session.id)
  | Some n -> (
      let m = engine_method method_ in
      match
        Cqa.Engine.refusal
          ~semantics:(engine_semantics semantics)
          session.engine ~name n.ucq m
      with
      | Some msg -> P.err msg
      | None ->
          let rows =
            match semantics with
            | P.S ->
                let plan =
                  match method_ with
                  | P.Auto | P.Key_rewriting -> Some (plan session n)
                  | P.Enum | P.Rewriting | P.Asp | P.Sat -> None
                in
                Cqa.Engine.consistent_answers_ucq ~method_:m ?plan
                  session.engine n.ucq
            | P.C -> Cqa.Engine.consistent_answers_c session.engine n.ucq
          in
          P.ok ~body:(List.map pp_row rows)
            (Printf.sprintf "answers=%d" (List.length rows)))

let query_cache_key (session : Session.t) name method_ semantics =
  String.concat "|"
    [
      session.digest; "query"; name; method_label method_;
      semantics_label semantics;
    ]

(* The one semantics x method -> branch table: the branch a
   QUERY/EXPLAIN executes, as the engine reports it to Obs.Progress.
   The plan is forced under method=auto only. *)
let branch session n method_ semantics =
  match (semantics, method_) with
  | P.C, _ -> Cqa.Engine.c_branch
  | P.S, P.Auto -> Cqa.Engine.route_label (plan session n).Cqa.Engine.route
  | P.S, m -> Cqa.Engine.method_route (engine_method m)

(* Every command gets a workload identity so the store attributes ~all
   request wall time: queries by shape (Cqa.Fingerprint — canonical
   variable renaming, constants abstracted, qualified by semantics) x
   plan branch, everything else under its command label on the
   "service" branch. *)
let workload_identity t command =
  match command with
  | P.Query { sid; name; method_; semantics; _ }
  | P.Explain { sid; name; method_; semantics; _ } -> (
      let explain = match command with P.Explain _ -> true | _ -> false in
      match Session.find t.sessions sid with
      | None -> (String.lowercase_ascii (P.command_label command), "service")
      | Some session -> (
          match named t session name with
          | None ->
              ( (if explain then "explain:" else "")
                ^ semantics_label semantics ^ ":unknown:" ^ name,
                "service" )
          | Some n ->
              ( (Lazy.force n.fingerprints).(fingerprint_slot ~explain semantics),
                branch session n method_ semantics )))
  | P.Repairs { semantics; _ } ->
      ("repairs:" ^ semantics_label semantics, "service")
  | c -> (String.lowercase_ascii (P.command_label c), "service")

(* The route the engine reports having run ([executed_route] on its
   [engine.certain_answers] span), if any: it differs from the planned
   branch when the key rewriting declines on NULLs and SAT or
   enumeration answers instead. *)
let executed_route spans =
  List.find_map
    (fun (s : Obs.Trace.span) ->
      if String.equal s.name "engine.certain_answers" then
        List.assoc_opt "executed_route" s.attrs
      else None)
    spans

(* The plan section of EXPLAIN: the Engine.plan branch the request
   executes (direct / key_rewriting / sat_compilation /
   repair_enumeration, or the forced method's branch) and the
   classifier's verdict.  Emitted on every successful EXPLAIN whatever
   the method, semantics, or cache state. *)
let plan_lines t (session : Session.t) name method_ semantics =
  match named t session name with
  | None -> []
  | Some n ->
      let p = plan session n in
      [
        "-- plan";
        Printf.sprintf "branch %s" (branch session n method_ semantics);
        Printf.sprintf "verdict %s witness %s"
          (Analysis.Classify.verdict_label
             p.Cqa.Engine.classification.Analysis.Classify.verdict)
          (Analysis.Classify.witness_code
             p.Cqa.Engine.classification.Analysis.Classify.witness);
        Printf.sprintf "auto_route %s" (Cqa.Engine.route_label p.Cqa.Engine.route);
      ]

(* EXPLAIN runs the query fresh under a private trace sink and reports
   what it cost: whether an equivalent QUERY would be answered from the
   memo cache, the span tree, and the solver-counter deltas.  It never
   reads or fills the cache itself, so the measurement is repeatable. *)
let exec_explain t (session : Session.t) name method_ semantics =
  let key = query_cache_key session name method_ semantics in
  let cache_state = if Lru.mem t.cache key then "hit" else "miss" in
  let registry = Metrics.registry t.metrics in
  let before = Obs.Registry.counter_snapshot registry in
  let t0 = Unix.gettimeofday () in
  let response, spans =
    Obs.Trace.collect (fun () -> exec_query t session name method_ semantics)
  in
  let wall = Unix.gettimeofday () -. t0 in
  match response with
  | { P.status = `Err; _ } -> response
  | { P.status = `Ok; head; _ } ->
      let deltas = Obs.Registry.counter_delta ~since:before registry in
      (* The static side of the story: the classifier's verdict, witness
         and auto-route for the query, so every explained answer carries
         its justification next to the measured cost. *)
      let analysis =
        match Cqa.Analyze.query_lines session.doc name with
        | lines -> "-- analysis" :: lines
        | exception Not_found -> []
      in
      (* When the dispatcher armed a progress context, its flight
         recorder holds the request's heartbeat trail — phase
         transitions and work counts with relative timestamps. *)
      let progress =
        match Obs.Progress.active () with
        | None -> []
        | Some c -> "-- progress" :: Obs.Progress.history_lines c
      in
      let body =
        Printf.sprintf "cache %s key=%s" cache_state key
        :: plan_lines t session name method_ semantics
        @ (match executed_route spans with
          | Some r -> [ Printf.sprintf "executed_route %s" r ]
          | None -> [])
        @ analysis
        @ ("-- spans" :: Obs.Export.tree spans)
        @ ("-- counters"
          :: List.map (fun (n, v) -> Printf.sprintf "%s %d" n v) deltas)
        @ progress
      in
      P.ok ~body
        (Printf.sprintf "explain %s wall_us=%.1f spans=%d" head (wall *. 1e6)
           (List.length spans))

let exec_check (session : Session.t) =
  match
    Constraints.Violation.count session.doc.instance session.doc.schema
      session.doc.ics
  with
  | 0 -> P.ok "consistent"
  | n -> P.ok (Printf.sprintf "inconsistent violations=%d" n)

let exec_repairs (session : Session.t) semantics =
  let count =
    match semantics with
    | P.S -> Repairs.Count.s_repairs
    | P.C -> Repairs.Count.c_repairs
  in
  match count session.doc.instance session.doc.schema session.doc.ics with
  | n -> P.ok (Printf.sprintf "count=%d" n)
  | exception Repairs.Count.Overflow msg -> P.err msg

let exec_analyze (session : Session.t) name =
  match name with
  | Some name -> (
      match Cqa.Analyze.query_lines session.doc name with
      | lines ->
          P.ok ~body:lines
            (Printf.sprintf "analyze query=%s lines=%d" name (List.length lines))
      | exception Not_found ->
          P.err
            (Printf.sprintf "no query named %S in session %S" name session.id))
  | None ->
      let report = Cqa.Analyze.document session.doc in
      let body = Cqa.Analyze.lines report in
      P.ok ~body
        (Printf.sprintf "analyze queries=%d errors=%s lines=%d"
           (List.length report.Cqa.Analyze.queries)
           (if Cqa.Analyze.has_errors report then "yes" else "no")
           (List.length body))

let exec_measure (session : Session.t) =
  let measures =
    Measures.Degree.all session.doc.instance session.doc.schema
      session.doc.ics
  in
  P.ok
    ~body:(List.map (fun (name, x) -> Printf.sprintf "%s %.4f" name x) measures)
    (Printf.sprintf "measures=%d" (List.length measures))

let exec t payload = function
  | P.Load sid -> (
      let text = String.concat "\n" (Option.value ~default:[] payload) in
      match Cqa.Parse.document_of_string text with
      | exception Cqa.Parse.Error (line, msg) ->
          P.err (Printf.sprintf "payload line %d: %s" line msg)
      | exception Invalid_argument msg -> P.err ("payload: " ^ msg)
      | doc ->
          (* On re-LOAD the replaced session's entries would linger in
             the cache untracked by any session; drop them now. *)
          (match Session.find t.sessions sid with
          | Some old -> List.iter (Lru.remove t.cache) (Session.take_keys old)
          | None -> ());
          let _session = Session.load t.sessions ~id:sid doc in
          P.ok
            (Printf.sprintf "loaded session=%s facts=%d ics=%d queries=%d" sid
               (Relational.Instance.size doc.instance)
               (List.length doc.ics)
               (List.length doc.queries)))
  | P.Query { sid; name; method_; semantics; _ } ->
      with_session t sid (fun session ->
          let key = query_cache_key session name method_ semantics in
          cached t session key (fun () -> exec_query t session name method_ semantics))
  | P.Trace flag ->
      Obs.Trace.set_enabled flag;
      P.ok (if flag then "trace=on" else "trace=off")
  | P.Explain { sid; name; method_; semantics; _ } ->
      with_session t sid (fun session ->
          exec_explain t session name method_ semantics)
  | P.Check sid -> with_session t sid exec_check
  | P.Repairs { sid; semantics } ->
      with_session t sid (fun session ->
          let key =
            String.concat "|"
              [ session.digest; "repairs"; semantics_label semantics ]
          in
          cached t session key (fun () -> exec_repairs session semantics))
  | P.Measure sid ->
      with_session t sid (fun session ->
          let key = String.concat "|" [ session.digest; "measure" ] in
          cached t session key (fun () -> exec_measure session))
  | P.Analyze { sid; name } ->
      with_session t sid (fun session ->
          (* Analysis is pure in the document, so it memoizes under the
             digest like any query. *)
          let key =
            String.concat "|"
              [ session.digest; "analyze"; Option.value ~default:"*" name ]
          in
          cached t session key (fun () -> exec_analyze session name))
  | P.Update { sid; op; rel; values } ->
      with_session t sid (fun session ->
          let before = session.digest in
          match Session.apply_update session ~op ~rel values with
          | Error msg -> P.err msg
          | Ok () ->
              (* If the digest moved, stale entries can no longer be hit;
                 dropping them eagerly also frees cache room.  A no-op
                 UPDATE leaves the digest, and so its entries, valid. *)
              if not (String.equal before session.digest) then
                List.iter (Lru.remove t.cache) (Session.take_keys session);
              P.ok
                (Printf.sprintf "size=%d"
                   (Relational.Instance.size session.doc.instance)))
  | P.Stats ->
      sample_gauges t;
      let workload =
        match t.stats with
        | None -> []
        | Some stats ->
            ("-- workload" :: Obs.Stats.summary_lines stats)
            @ (match t.sampler with
              | None -> []
              | Some s ->
                  [
                    Printf.sprintf "workload.tail_kept %d" (Obs.Sampler.kept s);
                    Printf.sprintf "workload.tail_overwritten %d"
                      (Obs.Sampler.overwritten s);
                    Printf.sprintf "workload.tail_seen %d" (Obs.Sampler.seen s);
                  ])
      in
      let body =
        Printf.sprintf "sessions %d" (Session.count t.sessions)
        :: Printf.sprintf "cache_entries %d" (Lru.length t.cache)
        :: Printf.sprintf "cache_evictions %d" (Lru.evictions t.cache)
        :: Metrics.render t.metrics
        @ workload
      in
      P.ok ~body (Printf.sprintf "stats=%d" (List.length body))
  | P.Workload mode -> (
      match t.stats with
      | None ->
          P.err "workload stats disabled (start the server with --workload)"
      | Some stats -> (
          match mode with
          | `Summary ->
              let body =
                Obs.Stats.summary_lines stats
                @
                match t.sampler with
                | None -> []
                | Some s ->
                    [
                      Printf.sprintf "workload.tail_kept %d"
                        (Obs.Sampler.kept s);
                      Printf.sprintf "workload.tail_seen %d"
                        (Obs.Sampler.seen s);
                    ]
              in
              P.ok ~body
                (Printf.sprintf "workload recorded=%d fingerprints=%d"
                   (Obs.Stats.recorded stats)
                   (Obs.Stats.length stats))
          | `Top n ->
              P.ok
                ~body:(Obs.Stats.render_top stats n)
                (Printf.sprintf "workload top=%d of %d" n
                   (Obs.Stats.length stats))
          | `By_branch ->
              P.ok
                ~body:(Obs.Stats.render_by_branch stats)
                "workload by branch"
          | `Reset ->
              Obs.Stats.reset stats;
              (match t.sampler with
              | Some s -> Obs.Sampler.clear s
              | None -> ());
              P.ok "workload reset"))
  | P.Metrics ->
      let body =
        String.split_on_char '\n' (metrics_text t)
        |> List.filter (fun l -> l <> "")
      in
      P.ok ~body (Printf.sprintf "metrics lines=%d" (List.length body))
  | P.Inflight ->
      (* One line per live context.  The single-threaded loop answers
         INFLIGHT between requests, so over a socket this mostly shows
         work running on Par worker domains and nested dispatches; the
         same table feeds the inflight.* gauges and the signal-time
         flight-recorder dump, where it captures whatever the signal
         interrupted. *)
      let now = t.clock () in
      let ctxs = Obs.Progress.inflight () in
      P.ok
        ~body:(List.map (Obs.Progress.describe ~now) ctxs)
        (Printf.sprintf "inflight=%d" (List.length ctxs))
  | P.Close sid ->
      if Session.close t.sessions sid then P.ok (Printf.sprintf "closed %s" sid)
      else P.err (Printf.sprintf "unknown session %S" sid)
  | P.Quit -> P.ok "bye"

(* Commands whose execution is worth a span tree: the ones that touch a
   session's engine.  The control commands stay unwrapped — notably
   TRACE, whose toggle [Obs.Trace.collect] would silently undo when it
   restores the enabled flag. *)
let traceable = function
  | P.Load _ | P.Query _ | P.Check _ | P.Repairs _ | P.Measure _
  | P.Update _ | P.Explain _ | P.Analyze _ ->
      true
  | P.Stats | P.Metrics | P.Trace _ | P.Workload _ | P.Inflight | P.Close _
  | P.Quit ->
      false

let sid_of = function
  | P.Load sid
  | P.Check sid
  | P.Measure sid
  | P.Close sid
  | P.Query { sid; _ }
  | P.Repairs { sid; _ }
  | P.Update { sid; _ }
  | P.Explain { sid; _ }
  | P.Analyze { sid; _ } ->
      Some sid
  | P.Stats | P.Metrics | P.Trace _ | P.Workload _ | P.Inflight | P.Quit ->
      None

let emit_request_event t ~rid ~command ~response ~latency =
  match t.events with
  | None -> ()
  | Some sink ->
      let open Obs.Events in
      let fields =
        [
          ("command", Str (P.command_label command));
          ( "status",
            Str (match response.P.status with `Ok -> "ok" | `Err -> "err") );
          ("head", Str response.P.head);
          ("wall_us", Float (latency *. 1e6));
        ]
        @ match sid_of command with Some sid -> [ ("sid", Str sid) ] | None -> []
      in
      emit sink ~req:rid ~fields "request"

(* The slow-query record: everything EXPLAIN would have shown, captured
   after the fact — the span tree the request actually executed and the
   solver-counter deltas it caused. *)
let emit_slow_event t ~rid ~command ~latency ~spans ~deltas ~progress =
  match t.events with
  | None -> ()
  | Some sink ->
      let open Obs.Events in
      let json_list xs =
        "[" ^ String.concat "," (List.map Obs.Export.json_string xs) ^ "]"
      in
      let counters =
        "{"
        ^ String.concat ","
            (List.map
               (fun (n, v) ->
                 Printf.sprintf "%s:%d" (Obs.Export.json_string n) v)
               deltas)
        ^ "}"
      in
      let fields =
        [
          ("command", Str (P.command_label command));
          ("wall_us", Float (latency *. 1e6));
          ("spans", Raw (json_list (Obs.Export.tree spans)));
          ("counters", Raw counters);
        ]
        @ (match progress with
          | [] -> []
          | lines -> [ ("progress", Raw (json_list lines)) ])
        @ match sid_of command with Some sid -> [ ("sid", Str sid) ] | None -> []
      in
      emit sink ~req:rid ~fields "slow_query"

let dispatch t ?payload command =
  incr t.next_rid;
  let rid = !(t.next_rid) in
  let registry = Metrics.registry t.metrics in
  (* The slow-query log, the workload store (phase attribution, counter
     deltas) and the tail sampler all want the request's span tree, so
     any of them arms the private collection. *)
  let collecting =
    (t.slow_s <> None || t.stats <> None || t.sampler <> None)
    && traceable command
  in
  let before =
    if collecting then begin
      let b =
        Obs.Registry.counter_baseline ?reuse:t.baseline_scratch registry
      in
      t.baseline_scratch <- Some b;
      Some b
    end
    else None
  in
  t.last_cache <- Obs.Stats.Uncached;
  t.last_entry <- None;
  let t0 = t.clock () in
  (* Per-request deadline: an explicit timeout= wins; the server default
     covers every other session-touching command (REPAIRS and MEASURE
     blow up on the same instances QUERY does). *)
  let deadline_s =
    let explicit =
      match command with
      | P.Query { timeout_ms; _ } | P.Explain { timeout_ms; _ } -> timeout_ms
      | _ -> None
    in
    match explicit with
    | Some ms -> Some (ms /. 1e3)
    | None -> t.default_timeout_s
  in
  let ctx =
    if t.progress && traceable command then
      Some
        (Obs.Progress.create ?deadline_s ~clock:t.clock ~now:t0
           ?session:(sid_of command)
           ~label:(P.command_label command) ~id:rid ())
    else None
  in
  let run () =
    match ctx with
    | None -> (
        try exec t payload command
        with e -> P.err (Printf.sprintf "internal: %s" (Printexc.to_string e)))
    | Some c -> (
        try Obs.Progress.run c (fun () -> exec t payload command) with
        | Obs.Progress.Deadline_exceeded ->
            (* Structured deadline answer carrying the final snapshot,
               so the client sees where the budget went. *)
            let s = Obs.Progress.snapshot c in
            P.err
              (Printf.sprintf
                 "deadline budget_ms=%.0f elapsed_ms=%.0f branch=%s phase=%s \
                  work=%d bound=%s"
                 (match Obs.Progress.budget_s c with
                 | Some b -> b *. 1e3
                 | None -> 0.0)
                 (Obs.Progress.elapsed ~now:(t.clock ()) c *. 1e3)
                 (Obs.Progress.branch c) s.Obs.Progress.s_phase
                 s.Obs.Progress.s_work
                 (Obs.Progress.pp_bound s.Obs.Progress.s_bound))
        | e -> P.err (Printf.sprintf "internal: %s" (Printexc.to_string e)))
  in
  let response, collected =
    if collecting then
      let r, spans =
        Obs.Trace.collect (fun () ->
            Obs.Trace.with_span
              ~attrs:
                [
                  ("req", string_of_int rid);
                  ("command", P.command_label command);
                ]
              "request" run)
      in
      (r, Some spans)
    else (run (), None)
  in
  let latency = t.clock () -. t0 in
  Metrics.observe t.metrics ~command:(P.command_label command) ~latency;
  if response.P.status = `Err then Metrics.error t.metrics;
  emit_request_event t ~rid ~command ~response ~latency;
  let deltas =
    lazy
      (match before with
      | Some b -> Obs.Registry.counter_delta_since b registry
      | None -> [])
  in
  (match (t.slow_s, collected) with
  | Some thr, Some spans when latency > thr ->
      emit_slow_event t ~rid ~command ~latency ~spans
        ~deltas:(Lazy.force deltas)
        ~progress:
          (match ctx with
          | Some c -> Obs.Progress.history_lines c
          | None -> [])
  | _ -> ());
  (* Fold the request into the workload store — every command, so the
     store attributes (approximately) all request wall time. *)
  (match t.stats with
  | None -> ()
  | Some stats ->
      let fingerprint, branch = workload_identity t command in
      (* The route that ran, as the engine reported it; a cache hit
         runs no engine, so it replays the route its entry recorded. *)
      let branch =
        match (Option.bind collected executed_route, t.last_entry) with
        | Some r, Some e ->
            e.route <- Some r;
            r
        | Some r, None | None, Some { route = Some r; _ } -> r
        | None, _ -> branch
      in
      let phases =
        match collected with
        | Some spans -> Obs.Stats.phases_of_spans spans
        | None -> []
      in
      let counters = if collecting then Lazy.force deltas else [] in
      Obs.Stats.record stats ~fingerprint ~branch ~wall_s:latency
        ~rows:(List.length response.P.body)
        ~cache:t.last_cache
        ~error:(response.P.status = `Err)
        ~phases ~counters ());
  (* Offer the span tree to the tail sampler; discarded unless the
     request erred, ran over the threshold, or fell on the sampling
     grid. *)
  (match t.sampler with
  | None -> ()
  | Some sampler ->
      ignore
        (Obs.Sampler.offer sampler ~rid ~command:(P.command_label command)
           ~wall_s:latency
           ~ok:(response.P.status = `Ok)
           (Option.value ~default:[] collected)));
  (* When server-wide tracing is on, hand the spans this request left to
     the owner (cqa_server streams them to disk).  With the slow-query
     log armed they were captured privately; otherwise they sit in the
     global sink. *)
  (match t.on_trace with
  | Some f when Obs.Trace.is_enabled () -> (
      match collected with
      | Some spans -> if spans <> [] then f spans
      | None -> ( match Obs.Trace.drain () with [] -> () | spans -> f spans))
  | _ -> ());
  P.clamp ~max_lines:t.max_body_lines response

let parse_failure t msg =
  Metrics.parse_error t.metrics;
  Metrics.error t.metrics;
  P.err msg

let handle_line t ?payload line =
  match P.parse line with
  | Ok command -> dispatch t ?payload command
  | Error msg -> parse_failure t msg
