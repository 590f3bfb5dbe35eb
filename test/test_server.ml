(* The serving layer: LRU eviction and capacity bounds, metrics, protocol
   parsing (errors answered with ERR, never an exception), cache
   invalidation on UPDATE, and an end-to-end socket round-trip against
   the select loop. *)

module P = Server.Protocol

let doc_lines =
  [
    "relation T(k, v)";
    "row T(1, 1)";
    "row T(1, 2)";
    "row T(2, 5)";
    "key T(k)";
    "query q(X) :- T(X, Y)";
  ]

(* ---- Lru ------------------------------------------------------------- *)

let test_lru_eviction () =
  let c = Server.Lru.create ~capacity:3 in
  Server.Lru.add c "a" 1;
  Server.Lru.add c "b" 2;
  Server.Lru.add c "c" 3;
  (* Touch "a": now "b" is least recently used. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Server.Lru.find c "a");
  Server.Lru.add c "d" 4;
  Alcotest.(check int) "capacity bound" 3 (Server.Lru.length c);
  Alcotest.(check bool) "b evicted" false (Server.Lru.mem c "b");
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ]
    (Server.Lru.keys c);
  Alcotest.(check int) "one eviction" 1 (Server.Lru.evictions c);
  (* Finding the front element takes promote's fast path; order holds. *)
  Alcotest.(check (option int)) "find front" (Some 4) (Server.Lru.find c "d");
  Alcotest.(check (list string)) "front find keeps order" [ "d"; "a"; "c" ]
    (Server.Lru.keys c)

let test_lru_overwrite () =
  let c = Server.Lru.create ~capacity:2 in
  Server.Lru.add c "a" 1;
  Server.Lru.add c "b" 2;
  Server.Lru.add c "a" 10;
  Alcotest.(check int) "no growth on overwrite" 2 (Server.Lru.length c);
  Alcotest.(check (option int)) "new value" (Some 10) (Server.Lru.find c "a");
  (* Overwriting promoted "a", so "b" goes first. *)
  Server.Lru.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Server.Lru.mem c "b");
  Alcotest.(check bool) "a kept" true (Server.Lru.mem c "a")

let test_lru_remove_clear () =
  let c = Server.Lru.create ~capacity:4 in
  List.iter (fun k -> Server.Lru.add c k k) [ 1; 2; 3 ];
  Server.Lru.remove c 2;
  Server.Lru.remove c 99 (* absent: no-op *);
  Alcotest.(check (list int)) "after remove" [ 3; 1 ] (Server.Lru.keys c);
  Server.Lru.clear c;
  Alcotest.(check int) "after clear" 0 (Server.Lru.length c);
  Server.Lru.add c 7 7;
  Alcotest.(check (list int)) "usable after clear" [ 7 ] (Server.Lru.keys c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Server.Lru.create ~capacity:0))

let test_lru_capacity_one () =
  let c = Server.Lru.create ~capacity:1 in
  Server.Lru.add c "a" 1;
  Server.Lru.add c "b" 2;
  Alcotest.(check (list string)) "only newest" [ "b" ] (Server.Lru.keys c);
  Alcotest.(check (option int)) "a gone" None (Server.Lru.find c "a")

(* ---- Metrics --------------------------------------------------------- *)

let test_metrics () =
  let m = Server.Metrics.create () in
  Server.Metrics.observe m ~command:"QUERY" ~latency:0.0005;
  Server.Metrics.observe m ~command:"QUERY" ~latency:0.05;
  Server.Metrics.observe m ~command:"CHECK" ~latency:1e-7;
  Server.Metrics.cache_hit m;
  Server.Metrics.cache_miss m;
  Server.Metrics.cache_miss m;
  Server.Metrics.add_bytes_in m 10;
  Server.Metrics.add_bytes_out m 20;
  Alcotest.(check int) "requests" 3 (Server.Metrics.requests m);
  Alcotest.(check int) "hits" 1 (Server.Metrics.hits m);
  Alcotest.(check (float 1e-9)) "hit rate" (1.0 /. 3.0)
    (Server.Metrics.hit_rate m);
  let rendered = Server.Metrics.render m in
  Alcotest.(check bool) "hits line" true (List.mem "cache_hits 1" rendered);
  Alcotest.(check bool) "bytes line" true (List.mem "bytes_in 10" rendered);
  let query_line =
    List.find
      (fun l -> String.length l > 13 && String.sub l 0 13 = "latency_query")
      rendered
  in
  Alcotest.(check bool) "histogram rendered" true
    (String.length query_line > 0)

(* ---- Protocol -------------------------------------------------------- *)

let test_protocol_parse () =
  (match P.parse "QUERY s1 q method=asp semantics=c" with
  | Ok (P.Query { sid; name; method_ = P.Asp; semantics = P.C; _ }) ->
      Alcotest.(check string) "sid" "s1" sid;
      Alcotest.(check string) "name" "q" name
  | _ -> Alcotest.fail "QUERY with options should parse");
  (match P.parse "update s2 add T(3, \"a b\")" with
  | Ok (P.Update { op = `Add; rel; values; _ }) ->
      Alcotest.(check string) "rel" "T" rel;
      Alcotest.(check int) "arity" 2 (List.length values);
      Alcotest.(check bool) "quoted string value" true
        (List.nth values 1 = Relational.Value.Str "a b")
  | _ -> Alcotest.fail "lowercase UPDATE should parse");
  (match P.parse "REPAIRS s1 c" with
  | Ok (P.Repairs { semantics = P.C; _ }) -> ()
  | _ -> Alcotest.fail "REPAIRS c should parse");
  (match P.parse "TRACE on" with
  | Ok (P.Trace true) -> ()
  | _ -> Alcotest.fail "TRACE on should parse");
  (match P.parse "trace OFF" with
  | Ok (P.Trace false) -> ()
  | _ -> Alcotest.fail "lowercase TRACE off should parse");
  (match P.parse "EXPLAIN s1 q method=enum semantics=s" with
  | Ok (P.Explain { sid = "s1"; name = "q"; method_ = P.Enum; semantics = P.S; _ })
    ->
      ()
  | _ -> Alcotest.fail "EXPLAIN with options should parse");
  (match P.parse "EXPLAIN s1 q" with
  | Ok (P.Explain { method_ = P.Auto; semantics = P.S; _ }) -> ()
  | _ -> Alcotest.fail "EXPLAIN defaults should parse");
  (* A digit run wider than max_int must parse (as a string constant),
     not raise out of the server loop. *)
  (match P.parse "UPDATE s1 add T(99999999999999999999, -99999999999999999999)"
   with
  | Ok (P.Update { values; _ }) ->
      Alcotest.(check bool) "overlong int literal kept as string" true
        (values
        = [
            Relational.Value.Str "99999999999999999999";
            Relational.Value.Str "-99999999999999999999";
          ])
  | Ok _ -> Alcotest.fail "overlong literal parsed as wrong command"
  | Error msg -> Alcotest.fail ("overlong literal should parse: " ^ msg));
  let bad l =
    match P.parse l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" l)
  in
  List.iter bad
    [
      "FROBNICATE x"; ""; "QUERY"; "QUERY s1 q method=warp";
      "UPDATE s1 add no-parens"; "REPAIRS s1 q"; "LOAD a b"; "STATS extra";
      "TRACE"; "TRACE maybe"; "TRACE on off"; "EXPLAIN s1";
      "EXPLAIN s1 q method=warp";
    ]

(* ---- Handler: memoization and invalidation --------------------------- *)

let load_session h sid =
  match Server.Handler.dispatch h ~payload:doc_lines (P.Load sid) with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)

let dispatch_line h line =
  Server.Handler.handle_line h line

let test_handler_cache_and_invalidation () =
  let h = Server.Handler.create ~cache_capacity:16 () in
  load_session h "s1";
  let m = Server.Handler.metrics h in
  let r1 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check bool) "first QUERY ok" true (r1.P.status = `Ok);
  (* Key 1 conflicts (two claimants), key 2 is clean: answers are 1, 2. *)
  Alcotest.(check (list string)) "answers" [ "1"; "2" ]
    (List.sort compare r1.P.body);
  Alcotest.(check int) "one miss" 1 (Server.Metrics.misses m);
  let r2 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check int) "served from cache" 1 (Server.Metrics.hits m);
  Alcotest.(check (list string)) "same body from cache" r1.P.body r2.P.body;
  (* UPDATE invalidates: the digest changes and the entry is dropped. *)
  Alcotest.(check int) "entry cached" 1 (Server.Handler.cache_length h);
  let u = dispatch_line h "UPDATE s1 add T(9, 9)" in
  Alcotest.(check bool) "update ok" true (u.P.status = `Ok);
  Alcotest.(check int) "cache dropped" 0 (Server.Handler.cache_length h);
  let r3 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check int) "recomputed, not hit" 1 (Server.Metrics.hits m);
  Alcotest.(check int) "second miss" 2 (Server.Metrics.misses m);
  Alcotest.(check (list string)) "new fact visible" [ "1"; "2"; "9" ]
    (List.sort compare r3.P.body);
  (* Deleting the clean tuple changes answers again. *)
  ignore (dispatch_line h "UPDATE s1 del T(2, 5)");
  let r4 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check (list string)) "delete visible" [ "1"; "9" ]
    (List.sort compare r4.P.body)

(* A one-fact UPDATE invalidates only the touched relation's columnar
   view: the next QUERY rebuilds T's view and reuses S's. *)
let test_update_rebuilds_one_view () =
  let h = Server.Handler.create () in
  let payload =
    [
      "relation T(k, v)"; "relation S(v, w)"; "row T(1, 1)"; "row T(1, 2)";
      "row T(2, 5)"; "row S(1, 7)"; "row S(5, 8)"; "key T(k)"; "key S(v)";
      "query q(X, W) :- T(X, Y), S(Y, W)";
    ]
  in
  (match Server.Handler.dispatch h ~payload (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  let builds () =
    Obs.Registry.counter_value
      (Server.Metrics.registry (Server.Handler.metrics h))
      "columnar.builds"
  in
  let r1 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check (list string)) "answers" [ "2, 8" ] r1.P.body;
  let before = builds () in
  Alcotest.(check bool) "views built by the first QUERY" true (before >= 2);
  ignore (dispatch_line h "UPDATE s1 add T(3, 5)");
  let r2 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check (list string)) "new answer" [ "2, 8"; "3, 8" ]
    (List.sort compare r2.P.body);
  Alcotest.(check int) "one view rebuilt (T), S's kept" 1 (builds () - before)

let test_handler_reload_redefines_query () =
  (* Same instance and ICs, but q now projects the value column: the
     digest must change so the old answers cannot be replayed. *)
  let h = Server.Handler.create () in
  load_session h "s1";
  let r1 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check (list string)) "key column first" [ "1"; "2" ]
    (List.sort compare r1.P.body);
  let redefined =
    List.map
      (fun l -> if l = "query q(X) :- T(X, Y)" then "query q(Y) :- T(X, Y)" else l)
      doc_lines
  in
  (match Server.Handler.dispatch h ~payload:redefined (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("re-LOAD failed: " ^ head));
  let r2 = dispatch_line h "QUERY s1 q" in
  Alcotest.(check int) "no stale cache hit" 0
    (Server.Metrics.hits (Server.Handler.metrics h));
  (* T(2, 5) is clean, so 5 is certain; the conflicting key 1's values
     1 and 2 are not. *)
  Alcotest.(check (list string)) "redefined query answers" [ "5" ]
    (List.sort compare r2.P.body)

let test_handler_ucq_method_mismatch () =
  let h = Server.Handler.create () in
  let payload =
    doc_lines @ [ "query u(X) :- T(X, Y)"; "query u(Y) :- T(X, Y)" ]
  in
  (match Server.Handler.dispatch h ~payload (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  (* An explicitly requested FO-rewriting method is refused for a union
     rather than silently downgraded to repair enumeration. *)
  List.iter
    (fun line ->
      match dispatch_line h line with
      | { P.status = `Err; _ } -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should answer ERR" line))
    [ "QUERY s1 u method=rewriting"; "QUERY s1 u method=key-rewriting" ];
  match dispatch_line h "QUERY s1 u" with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("auto UCQ should answer OK: " ^ head)

let test_handler_shared_cache_across_sessions () =
  (* Equal data under different session ids shares cache entries: the
     key is the instance digest, not the session id. *)
  let h = Server.Handler.create () in
  load_session h "a";
  load_session h "b";
  ignore (dispatch_line h "QUERY a q");
  ignore (dispatch_line h "QUERY b q");
  Alcotest.(check int) "second session hits" 1
    (Server.Metrics.hits (Server.Handler.metrics h))

let test_handler_repairs_measure_check () =
  let h = Server.Handler.create () in
  load_session h "s1";
  (match dispatch_line h "REPAIRS s1 s" with
  | { P.status = `Ok; head = "count=2"; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("unexpected REPAIRS: " ^ head));
  (match dispatch_line h "CHECK s1" with
  | { P.status = `Ok; head = "inconsistent violations=1"; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("unexpected CHECK: " ^ head));
  let m = dispatch_line h "MEASURE s1" in
  Alcotest.(check bool) "measures returned" true (List.length m.P.body >= 3);
  ignore (dispatch_line h "MEASURE s1");
  ignore (dispatch_line h "REPAIRS s1 s");
  Alcotest.(check int) "repairs+measure cached" 2
    (Server.Metrics.hits (Server.Handler.metrics h))

(* REPAIRS past [max_int] answers ERR naming the bound, not a wrapped
   count: 61 key-conflicting pairs count 2^61, 62 and 63 overflow. *)
let test_handler_repairs_overflow () =
  let h = Server.Handler.create () in
  let load sid pairs =
    let payload = Test_further_repairs.pairs_doc pairs in
    match Server.Handler.dispatch h ~payload (P.Load sid) with
    | { P.status = `Ok; _ } -> ()
    | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)
  in
  List.iter (fun n -> load (Printf.sprintf "p%d" n) n) [ 61; 62; 63 ];
  List.iter
    (fun sem ->
      (match dispatch_line h ("REPAIRS p61 " ^ sem) with
      | { P.status = `Ok; head = "count=2305843009213693952"; _ } -> ()
      | { P.head; _ } -> Alcotest.fail ("unexpected REPAIRS: " ^ head));
      List.iter
        (fun sid ->
          match dispatch_line h (Printf.sprintf "REPAIRS %s %s" sid sem) with
          | {
           P.status = `Err;
           head = "repair count exceeds max_int = 4611686018427387903 (2^62 - 1)";
           _;
          } ->
              ()
          | { P.head; _ } -> Alcotest.fail ("unexpected REPAIRS: " ^ head))
        [ "p62"; "p63" ])
    [ "s"; "c" ]

let test_handler_errors_keep_session () =
  let h = Server.Handler.create () in
  load_session h "s1";
  (* Parse error, unknown session, unknown query, bad update: all ERR,
     none fatal. *)
  List.iter
    (fun line ->
      match dispatch_line h line with
      | { P.status = `Err; _ } -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should answer ERR" line))
    [
      "FROBNICATE";
      "QUERY ghost q";
      "QUERY s1 nosuchquery";
      "UPDATE s1 add Ghost(1)";
      "UPDATE s1 add T(1)";
      "CLOSE ghost";
    ];
  (match dispatch_line h "QUERY s1 q" with
  | { P.status = `Ok; _ } -> ()
  | _ -> Alcotest.fail "session must survive bad requests");
  Alcotest.(check int) "errors counted" 6
    (Server.Metrics.errors (Server.Handler.metrics h))

(* A head or comparison variable no body atom binds is refused once, by
   the parser both the CLI and LOAD use, with the same message naming
   the variable — no executor ever sees the query. *)
let test_unsafe_query_rejected_at_parse () =
  let doc query =
    [
      "relation R(a,b)"; "key R(a)"; "row R(1,10)"; "row R(1,11)"; "row R(2,20)";
      query;
    ]
  in
  List.iter
    (fun (query, var) ->
      let lines = doc query in
      let msg =
        match Cqa.Parse.document_of_string (String.concat "\n" lines) with
        | exception Cqa.Parse.Error (line, msg) ->
            Alcotest.(check int) "error line" 6 line;
            msg
        | _ -> Alcotest.fail (query ^ " should not parse")
      in
      let names_var =
        try
          ignore (Str.search_forward (Str.regexp_string ("variable " ^ var)) msg 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) (msg ^ " names " ^ var) true names_var;
      let h = Server.Handler.create () in
      match Server.Handler.dispatch h ~payload:lines (P.Load "s1") with
      | { P.status = `Err; head; _ } ->
          Alcotest.(check string) "LOAD answers the parse error"
            ("payload line 6: " ^ msg) head
      | _ -> Alcotest.fail (query ^ ": LOAD should answer ERR"))
    [ ("query q(X) :- R(X, Y), Z > 1", "Z"); ("query q(X, W) :- R(X, Y)", "W") ]

(* ---- observability: TRACE, EXPLAIN, clamped framing ------------------- *)

let body_has_prefix body prefix =
  let n = String.length prefix in
  List.exists (fun l -> String.length l >= n && String.sub l 0 n = prefix) body

let test_trace_toggle () =
  let h = Server.Handler.create () in
  let on = dispatch_line h "TRACE on" in
  Alcotest.(check string) "trace on" "trace=on" on.P.head;
  Alcotest.(check bool) "tracing enabled" true (Obs.Trace.is_enabled ());
  let off = dispatch_line h "TRACE off" in
  Alcotest.(check string) "trace off" "trace=off" off.P.head;
  Alcotest.(check bool) "tracing disabled" false (Obs.Trace.is_enabled ())

let test_explain_cost_shift () =
  (* The acceptance demo: the same query EXPLAINed under repair
     enumeration (the coNP-shaped path) and under FO key-rewriting shows
     the cost moving between solver-counter families. *)
  let h = Server.Handler.create () in
  load_session h "s1";
  let enum = dispatch_line h "EXPLAIN s1 q method=enum" in
  Alcotest.(check bool) "enum EXPLAIN ok" true (enum.P.status = `Ok);
  Alcotest.(check bool) "enum head" true
    (String.length enum.P.head >= 17
    && String.sub enum.P.head 0 17 = "explain answers=2");
  Alcotest.(check bool) "enum enumerates repairs" true
    (body_has_prefix enum.P.body "repairs.enumerations ");
  Alcotest.(check bool) "enum weighs repair candidates" true
    (body_has_prefix enum.P.body "repairs.candidates ");
  Alcotest.(check bool) "enum never touches the rewriter" false
    (body_has_prefix enum.P.body "rewrite.");
  let rewr = dispatch_line h "EXPLAIN s1 q method=key-rewriting" in
  Alcotest.(check bool) "rewriting EXPLAIN ok" true (rewr.P.status = `Ok);
  Alcotest.(check bool) "rewriting applies the key rewrite" true
    (body_has_prefix rewr.P.body "rewrite.key_applicable ");
  Alcotest.(check bool) "rewriting enumerates no repairs" false
    (body_has_prefix rewr.P.body "repairs.");
  (* Both explanations carry the span tree rooted at the engine. *)
  List.iter
    (fun (r : P.response) ->
      Alcotest.(check bool) "span section" true (List.mem "-- spans" r.P.body);
      Alcotest.(check bool) "engine span" true
        (body_has_prefix r.P.body "engine.certain_answers"))
    [ enum; rewr ];
  (* Same answers either way: EXPLAIN changes the lens, not the result. *)
  Alcotest.(check bool) "rewriting finds the same answers" true
    (String.length rewr.P.head >= 17
    && String.sub rewr.P.head 0 17 = "explain answers=2")

let test_explain_cache_provenance () =
  (* EXPLAIN reports whether an equivalent QUERY would hit the memo
     cache, without reading, filling, or promoting it. *)
  let h = Server.Handler.create () in
  load_session h "s1";
  let m = Server.Handler.metrics h in
  let cold = dispatch_line h "EXPLAIN s1 q" in
  Alcotest.(check bool) "cold explain says miss" true
    (body_has_prefix cold.P.body "cache miss");
  Alcotest.(check int) "explain does not fill the cache" 0
    (Server.Handler.cache_length h);
  ignore (dispatch_line h "QUERY s1 q");
  let warm = dispatch_line h "EXPLAIN s1 q" in
  Alcotest.(check bool) "warm explain says hit" true
    (body_has_prefix warm.P.body "cache hit");
  Alcotest.(check int) "explain counts no cache hit" 0 (Server.Metrics.hits m)

let test_response_truncation () =
  (* Framing safety: a body longer than max_body_lines is cut with an
     explicit marker instead of flooding (or breaking) the line
     protocol. *)
  let h = Server.Handler.create ~max_body_lines:3 () in
  load_session h "s1";
  let r = dispatch_line h "EXPLAIN s1 q method=enum" in
  Alcotest.(check bool) "still OK" true (r.P.status = `Ok);
  Alcotest.(check int) "three lines plus the marker" 4 (List.length r.P.body);
  let last = List.nth r.P.body 3 in
  Alcotest.(check bool)
    (Printf.sprintf "marker present (%s)" last)
    true
    (String.length last >= 17 && String.sub last 0 17 = "...truncated (3 o");
  (* Short bodies pass through untouched. *)
  let q = dispatch_line h "QUERY s1 q" in
  Alcotest.(check (list string)) "short body untouched" [ "1"; "2" ]
    (List.sort compare q.P.body)

let test_stats_includes_solver_counters () =
  (* One STATS path: the solver counters accumulated during query
     execution render next to the request metrics. *)
  let h = Server.Handler.create () in
  load_session h "s1";
  ignore (dispatch_line h "QUERY s1 q method=enum");
  let stats = dispatch_line h "STATS" in
  Alcotest.(check bool) "STATS ok" true (stats.P.status = `Ok);
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        (Printf.sprintf "STATS has %s" prefix)
        true
        (body_has_prefix stats.P.body prefix))
    [
      "engine.queries "; "repairs.enumerations "; "requests_total ";
      "cache_hit_rate "; "latency_query ";
    ]

(* ---- end-to-end over a Unix socket ----------------------------------- *)

let connect_client path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  Unix.set_nonblock fd;
  fd

(* Drive the loop and the client in one thread of control: step the
   server until a full response (ending with ".") has arrived. *)
let roundtrip loop fd text =
  let pos = ref 0 in
  while !pos < String.length text do
    match Unix.write_substring fd text !pos (String.length text - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        ignore (Server.Loop.step ~timeout:0.01 loop)
  done;
  let buf = Buffer.create 256 in
  let bytes = Bytes.create 4096 in
  let complete () =
    let lines = String.split_on_char '\n' (Buffer.contents buf) in
    List.mem "." lines
  in
  let tries = ref 0 in
  while not (complete ()) do
    incr tries;
    if !tries > 2000 then Alcotest.fail "no response from server loop";
    ignore (Server.Loop.step ~timeout:0.01 loop);
    match Unix.read fd bytes 0 (Bytes.length bytes) with
    | 0 -> Alcotest.fail "server closed the connection"
    | n -> Buffer.add_subbytes buf bytes 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  done;
  let rec up_to_dot = function
    | "." :: _ | [] -> []
    | l :: rest -> l :: up_to_dot rest
  in
  up_to_dot (String.split_on_char '\n' (Buffer.contents buf))

let test_listen_unix_refuses_non_socket () =
  let path = Filename.temp_file "cqa-test" ".notasock" in
  (match Server.Loop.listen_unix path with
  | exception Failure _ -> ()
  | fd ->
      Unix.close fd;
      Alcotest.fail "listen_unix must refuse a regular file");
  Alcotest.(check bool) "regular file untouched" true (Sys.file_exists path);
  Sys.remove path

let test_e2e_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cqa-test-%d.sock" (Unix.getpid ()))
  in
  let loop = Server.Loop.create (Server.Loop.listen_unix path) in
  let fd = connect_client path in
  ignore (Server.Loop.step ~timeout:0.01 loop);
  Alcotest.(check int) "connection accepted" 1 (Server.Loop.connections loop);
  let load =
    roundtrip loop fd
      ("LOAD s1\n" ^ String.concat "\n" doc_lines ^ "\n.\n")
  in
  Alcotest.(check (list string)) "LOAD response"
    [ "OK loaded session=s1 facts=3 ics=1 queries=1" ]
    load;
  let q1 = roundtrip loop fd "QUERY s1 q\n" in
  Alcotest.(check (list string)) "QUERY response"
    [ "OK answers=2"; "1"; "2" ] q1;
  let q2 = roundtrip loop fd "QUERY s1 q\n" in
  Alcotest.(check (list string)) "identical QUERY replayed" q1 q2;
  (* The STATS hit counter proves the replay came from the cache. *)
  let stats = roundtrip loop fd "STATS\n" in
  Alcotest.(check bool) "warm QUERY hit the cache" true
    (List.mem "cache_hits 1" stats);
  (* A garbage line answers ERR without killing the connection. *)
  (match roundtrip loop fd "FROBNICATE the database\n" with
  | e :: _ -> Alcotest.(check string) "ERR status" "ERR" (String.sub e 0 3)
  | [] -> Alcotest.fail "no ERR response");
  let q3 = roundtrip loop fd "QUERY s1 q\n" in
  Alcotest.(check (list string)) "connection survives ERR" q1 q3;
  (match roundtrip loop fd "CLOSE s1\n" with
  | [ "OK closed s1" ] -> ()
  | other -> Alcotest.fail ("CLOSE: " ^ String.concat "|" other));
  (match roundtrip loop fd "QUERY s1 q\n" with
  | e :: _ when String.length e >= 3 && String.sub e 0 3 = "ERR" -> ()
  | _ -> Alcotest.fail "closed session must be gone");
  ignore (roundtrip loop fd "QUIT\n");
  (* The server closes its side once QUIT's response is flushed. *)
  let rec drain tries =
    if tries > 2000 then Alcotest.fail "connection not closed after QUIT";
    ignore (Server.Loop.step ~timeout:0.01 loop);
    if Server.Loop.connections loop > 0 then drain (tries + 1)
  in
  drain 0;
  Unix.close fd;
  Unix.unlink path

(* ---- ANALYZE memoization across UPDATE / re-LOAD -------------------- *)

let test_analyze_invalidation () =
  let h = Server.Handler.create () in
  load_session h "s1";
  let m = Server.Handler.metrics h in
  let a1 = dispatch_line h "ANALYZE s1" in
  Alcotest.(check bool) "first ANALYZE ok" true (a1.P.status = `Ok);
  Alcotest.(check int) "analyze cached" 1 (Server.Handler.cache_length h);
  ignore (dispatch_line h "ANALYZE s1");
  Alcotest.(check int) "second ANALYZE is a hit" 1 (Server.Metrics.hits m);
  (* UPDATE must drop the memoized analysis: a changed instance cannot
     serve the stale entry. *)
  let u = dispatch_line h "UPDATE s1 add T(3, 7)" in
  Alcotest.(check bool) "update ok" true (u.P.status = `Ok);
  Alcotest.(check int) "analysis entry dropped" 0
    (Server.Handler.cache_length h);
  ignore (dispatch_line h "ANALYZE s1");
  Alcotest.(check int) "post-UPDATE ANALYZE recomputes" 1
    (Server.Metrics.hits m);
  Alcotest.(check int) "post-UPDATE ANALYZE is a miss" 2
    (Server.Metrics.misses m)

let test_analyze_reload_schema_change () =
  (* Same facts, ICs and queries — only the schema differs (an extra
     attribute name on a declared relation never mentioned by a row).
     The digest must still change, or a re-LOAD could replay the old
     session's memoized analysis. *)
  let doc_of lines =
    Cqa.Parse.document_of_string (String.concat "\n" lines)
  in
  let base = [ "relation T(k, v)"; "row T(1, 2)"; "key T(k)"; "query q(X) :- T(X, Y)" ] in
  let with_extra =
    [ "relation T(k, v)"; "relation Extra(e)"; "row T(1, 2)"; "key T(k)";
      "query q(X) :- T(X, Y)" ]
  in
  Alcotest.(check bool) "schema feeds the session digest" false
    (String.equal
       (Server.Session.digest_of (doc_of base))
       (Server.Session.digest_of (doc_of with_extra)));
  (* End to end: re-LOAD with the changed schema recomputes ANALYZE. *)
  let h = Server.Handler.create () in
  let m = Server.Handler.metrics h in
  (match Server.Handler.dispatch h ~payload:base (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  ignore (dispatch_line h "ANALYZE s1");
  (match Server.Handler.dispatch h ~payload:with_extra (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("re-LOAD failed: " ^ head));
  ignore (dispatch_line h "ANALYZE s1");
  Alcotest.(check int) "no stale hit across re-LOAD" 0 (Server.Metrics.hits m);
  Alcotest.(check int) "both ANALYZEs computed" 2 (Server.Metrics.misses m)

(* ---- EXPLAIN plan section ------------------------------------------- *)

let hard_doc_lines =
  [
    "relation R(a, b)";
    "relation S(c, d)";
    "row R(1, 10)";
    "row R(1, 11)";
    "row S(7, 10)";
    "row S(8, 11)";
    "key R(a)";
    "key S(c)";
    "query hard(X) :- R(X, Y), S(Z, Y)";
  ]

let test_explain_always_shows_plan () =
  let h = Server.Handler.create () in
  (match Server.Handler.dispatch h ~payload:hard_doc_lines (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  let has body sub =
    List.exists
      (fun line ->
        Str.string_match (Str.regexp (".*" ^ Str.quote sub ^ ".*")) line 0)
      body
  in
  (* method=auto on the acyclic-but-not-C-forest pattern: the plan names
     the rewriting branch and the classifier's verdict. *)
  let e = dispatch_line h "EXPLAIN s1 hard" in
  Alcotest.(check bool) "explain ok" true (e.P.status = `Ok);
  Alcotest.(check bool) "plan section" true (has e.P.body "-- plan");
  Alcotest.(check bool) "branch line" true
    (has e.P.body "branch key_rewriting");
  Alcotest.(check bool) "verdict line" true
    (has e.P.body "verdict FO_rewritable");
  (* A forced method reports its own branch, same verdict. *)
  let e2 = dispatch_line h "EXPLAIN s1 hard method=enum" in
  Alcotest.(check bool) "forced branch" true
    (has e2.P.body "branch repair_enumeration");
  Alcotest.(check bool) "forced still shows verdict" true
    (has e2.P.body "verdict FO_rewritable");
  (* Explicit method=sat and method=key-rewriting round-trip through
     QUERY. *)
  let q = dispatch_line h "QUERY s1 hard method=sat" in
  Alcotest.(check bool) "method=sat ok" true (q.P.status = `Ok);
  Alcotest.(check (list string)) "certain answer" [ "1" ] q.P.body;
  let q2 = dispatch_line h "QUERY s1 hard method=key-rewriting" in
  Alcotest.(check bool) "method=key-rewriting ok" true (q2.P.status = `Ok);
  Alcotest.(check (list string)) "rewriting certain answer" [ "1" ] q2.P.body

(* A self-join under a key: no rewriting applies, so method=auto
   compiles to SAT.  The conflicting tuples are the four in key groups 1
   and 2, so the base theory has four variables; a candidate's probe
   adds clauses (its witnesses with two conflicting members) but no
   variable. *)
let selfjoin_doc_lines =
  [
    "relation T(k, v)";
    "row T(1, 2)";
    "row T(1, 3)";
    "row T(2, 1)";
    "row T(2, 4)";
    "row T(3, 1)";
    "key T(k)";
    "query sj(X) :- T(X, Y), T(Y, Z)";
  ]

let test_explain_selfjoin_routes_to_sat () =
  let load lines =
    let h = Server.Handler.create () in
    (match Server.Handler.dispatch h ~payload:lines (P.Load "s1") with
    | { P.status = `Ok; _ } -> ()
    | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
    h
  in
  let has body sub =
    List.exists
      (fun line ->
        Str.string_match (Str.regexp (".*" ^ Str.quote sub ^ ".*")) line 0)
      body
  in
  let h = load selfjoin_doc_lines in
  let e = dispatch_line h "EXPLAIN s1 sj" in
  Alcotest.(check bool) "explain ok" true (e.P.status = `Ok);
  Alcotest.(check bool) "branch sat_compilation" true
    (has e.P.body "branch sat_compilation");
  Alcotest.(check bool) "verdict unknown" true (has e.P.body "verdict unknown");
  (* The cavsat span reports the formula the candidates were solved
     against, not the base the solver was rolled back to. *)
  let span_int attr =
    let line =
      List.find
        (fun l ->
          Str.string_match (Str.regexp " *cavsat.certain_answers ") l 0)
        e.P.body
    in
    ignore (Str.search_forward (Str.regexp (attr ^ "=\\([0-9]+\\)")) line 0);
    int_of_string (Str.matched_group 1 line)
  in
  Alcotest.(check int) "peak vars: the base, no selector" 4 (span_int "vars");
  Alcotest.(check bool) "peak clauses above the base" true
    (span_int "clauses" > 4);
  let q = dispatch_line h "QUERY s1 sj" in
  let enum = dispatch_line h "QUERY s1 sj method=enum" in
  Alcotest.(check (list string)) "auto = enumeration" enum.P.body q.P.body;
  (* An inclusion dependency anywhere in the document keeps auto on
     enumeration: the SAT theory repairs by deletion only. *)
  let h =
    load
      (selfjoin_doc_lines
      @ [ "relation A(x)"; "relation B(y)"; "ind A[x] <= B[y]" ])
  in
  let e = dispatch_line h "EXPLAIN s1 sj" in
  Alcotest.(check bool) "IND: branch repair_enumeration" true
    (has e.P.body "branch repair_enumeration");
  Alcotest.(check bool) "IND: same verdict" true
    (has e.P.body "verdict unknown witness query/self-join")

(* ---- Digest soundness: typed constants, no-op UPDATEs --------------- *)

module V = Relational.Value

let load_lines h sid lines =
  match Server.Handler.dispatch h ~payload:lines (P.Load sid) with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)

let typed_doc k =
  [
    "relation T(k, v)"; "relation U(k)"; Printf.sprintf "row T(%s, 5)" k;
    "row U(1)"; "query q(X) :- T(X, Y), U(X)";
  ]

let test_typed_constants_do_not_collide () =
  (* [Int 1] and [Str "1"] print alike; a digest over printed facts gave
     both sessions one cache key, so b replayed a's answer. *)
  let h = Server.Handler.create () in
  load_lines h "a" (typed_doc "1");
  load_lines h "b" (typed_doc "\"1\"");
  let ra = dispatch_line h "QUERY a q" in
  let rb = dispatch_line h "QUERY b q" in
  Alcotest.(check string) "a joins T with U" "answers=1" ra.P.head;
  Alcotest.(check string) "b: the string \"1\" does not join" "answers=0"
    rb.P.head;
  Alcotest.(check int) "no shared entry" 0
    (Server.Metrics.hits (Server.Handler.metrics h));
  (* Each pair that prints alike must digest apart, whether the constant
     sits in a fact or in a query. *)
  let with_fact v =
    let doc =
      Cqa.Parse.document_of_string
        "relation T(k, v)\nquery q(X) :- T(X, Y)"
    in
    {
      doc with
      instance =
        Relational.Instance.add doc.instance
          (Relational.Fact.make "T" [ v; V.int 5 ]);
    }
  in
  List.iter
    (fun (x, y) ->
      let dx = Server.Session.digest_of (with_fact x)
      and dy = Server.Session.digest_of (with_fact y) in
      Alcotest.(check bool)
        (Printf.sprintf "%s vs %S digest apart" (V.to_string x) (V.to_string y))
        false (String.equal dx dy))
    [
      (V.int 1, V.str "1"); (V.Null, V.str "NULL"); (V.bool true, V.str "true");
      (V.real 1., V.str (V.to_string (V.real 1.)));
    ];
  let with_query c =
    Cqa.Parse.document_of_string
      ("relation T(k, v)\nquery q(X) :- T(X, " ^ c ^ ")")
  in
  Alcotest.(check bool) "query constants 1 vs \"1\" digest apart" false
    (String.equal
       (Server.Session.digest_of (with_query "1"))
       (Server.Session.digest_of (with_query "\"1\"")))

let test_noop_update_keeps_cache () =
  let h = Server.Handler.create () in
  load_session h "s1";
  let m = Server.Handler.metrics h in
  let digest () =
    (Option.get (Server.Session.find (Server.Handler.sessions h) "s1")).digest
  in
  let d0 = digest () in
  ignore (dispatch_line h "QUERY s1 q");
  (* T(1, 1) is already present; T(7, 7) never was. *)
  List.iter
    (fun line ->
      let u = dispatch_line h line in
      Alcotest.(check string) (line ^ " ok") "size=3" u.P.head;
      Alcotest.(check string) (line ^ " keeps the digest") d0 (digest ());
      Alcotest.(check int) (line ^ " keeps the entry") 1
        (Server.Handler.cache_length h))
    [ "UPDATE s1 add T(1, 1)"; "UPDATE s1 del T(7, 7)" ];
  ignore (dispatch_line h "QUERY s1 q");
  Alcotest.(check int) "QUERY after no-op UPDATEs hits" 1
    (Server.Metrics.hits m);
  (* A real change still moves the digest, away from any LOAD digest. *)
  ignore (dispatch_line h "UPDATE s1 add T(9, 9)");
  Alcotest.(check bool) "changing UPDATE moves the digest" false
    (String.equal d0 (digest ()));
  Alcotest.(check int) "and drops the entry" 0 (Server.Handler.cache_length h)

(* ---- Constraint fingerprints: the process-wide graph/theory caches -- *)

(* The conflict-graph and SAT-theory caches outlive sessions and are
   keyed by instance digest and constraint fingerprint.  Two sessions
   over equal instances whose constraints differ only where [Ic.pp] is
   blind — a constant's type, a CFD's pattern — must not share a
   theory.  Sessions [a] and [b] are queried in that order, each answer
   checked against its value by construction. *)
let check_fingerprint_split ~facts ~query ~ic_a ~ic_b ~expect_a ~expect_b =
  let h = Server.Handler.create () in
  load_lines h "a" (facts @ [ ic_a; query ]);
  load_lines h "b" (facts @ [ ic_b; query ]);
  let answer sid =
    let r = dispatch_line h ("QUERY " ^ sid ^ " q") in
    r.P.head :: r.P.body
  in
  Alcotest.(check (list string)) "session a" expect_a (answer "a");
  Alcotest.(check (list string)) "session b, after a" expect_b (answer "b");
  let ics sid =
    (Option.get (Server.Session.find (Server.Handler.sessions h) sid)).doc.ics
  in
  Alcotest.(check bool) "fingerprints differ" false
    (String.equal
       (Constraints.Memo.fingerprint (ics "a"))
       (Constraints.Memo.fingerprint (ics "b")))

let test_fingerprint_typed_denial () =
  (* [Z = 1] and [Z = "1"] print alike; only the first matches S(x, 1). *)
  check_fingerprint_split
    ~facts:[ "relation R(a, b)"; "relation S(a, c)"; "row R(x, y)"; "row S(x, 1)" ]
    ~query:"query q(X) :- R(X, Y)"
    ~ic_a:"dc d: R(X, Y), S(X, Z), Z = 1"
    ~ic_b:"dc d: R(X, Y), S(X, Z), Z = \"1\""
    ~expect_a:[ "answers=0" ] ~expect_b:[ "answers=1"; "x" ]

let test_fingerprint_cfd_pattern () =
  (* A CFD prints by name only, without its pattern. *)
  check_fingerprint_split
    ~facts:
      [
        "relation C(cc, zip, street)"; "row C(44, z1, s1)"; "row C(44, z1, s2)";
        "row C(1, z2, s3)"; "row C(1, z2, s4)";
      ]
    ~query:"query q(S) :- C(X, Z, S)"
    ~ic_a:"cfd C: cc = 44, zip -> street"
    ~ic_b:"cfd C: cc = 1, zip -> street"
    ~expect_a:[ "answers=2"; "s3"; "s4" ] ~expect_b:[ "answers=2"; "s1"; "s2" ]

(* ---- Cache soundness differential ----------------------------------- *)

(* Random LOAD/UPDATE/QUERY scripts over a few sessions through one
   handler: every answer, cached or not, must equal what a fresh handler
   answers on that session's current document.  Documents start equal
   or differ only in Int-vs-Str constants, so a digest that confused
   them, or one that failed to move on a write, would serve a wrong
   cached answer. *)

type fact = string * V.t list

type step =
  | Load of string * fact list
  | Update of string * [ `Add | `Del ] * fact
  | Query of string * string

let token = function
  | V.Int i -> string_of_int i
  | V.Str s -> "\"" ^ s ^ "\""
  | V.Null -> "null"
  | (V.Real _ | V.Bool _) as v -> V.to_string v

let fact_text (rel, vs) =
  Printf.sprintf "%s(%s)" rel (String.concat ", " (List.map token vs))

let step_text = function
  | Load (sid, facts) ->
      Printf.sprintf "LOAD %s {%s}" sid
        (String.concat "; " (List.map fact_text facts))
  | Update (sid, op, f) ->
      Printf.sprintf "UPDATE %s %s %s" sid
        (match op with `Add -> "add" | `Del -> "del")
        (fact_text f)
  | Query (sid, q) -> Printf.sprintf "QUERY %s %s" sid q

let doc_of_facts facts =
  [ "relation T(k, v)"; "relation U(k)" ]
  @ List.map (fun f -> "row " ^ fact_text f) facts
  @ [ "key T(k)"; "query q(X) :- T(X, Y), U(X)"; "query r(Y) :- T(X, Y)" ]

let gen_script =
  let open QCheck.Gen in
  let fact_over value =
    oneof
      [
        map2 (fun k v -> ("T", [ k; v ])) value value;
        map (fun k -> ("U", [ k ])) value;
      ]
  in
  let to_str = function V.Int i -> V.Str (string_of_int i) | v -> v in
  let* base = list_size (int_range 1 6) (fact_over (map V.int (int_range 1 3))) in
  let variant =
    let+ flips = list_repeat (List.length base) (frequencyl [ (3, false); (1, true) ]) in
    List.map2
      (fun flip (rel, vs) -> if flip then (rel, List.map to_str vs) else (rel, vs))
      flips base
  in
  let doc = frequency [ (1, return base); (2, variant) ] in
  let* n = int_range 2 3 in
  let sids = List.filteri (fun i _ -> i < n) [ "a"; "b"; "c" ] in
  let* loads = flatten_l (List.map (fun sid -> map (fun d -> Load (sid, d)) doc) sids) in
  let value = oneofl [ V.int 1; V.int 2; V.str "1"; V.str "2"; V.Null; V.str "NULL" ] in
  (* Base facts make duplicate adds and real deletes likely; random ones
     make fresh adds and absent deletes likely. *)
  let fact = oneof [ oneofl base; fact_over value ] in
  let step =
    frequency
      [
        (1, map2 (fun sid d -> Load (sid, d)) (oneofl sids) doc);
        ( 4,
          map3 (fun sid op f -> Update (sid, op, f)) (oneofl sids)
            (oneofl [ `Add; `Del ]) fact );
        (6, map2 (fun sid q -> Query (sid, q)) (oneofl sids) (oneofl [ "q"; "r" ]));
      ]
  in
  let+ steps = list_size (int_range 1 25) step in
  loads @ steps

let differential_hits = ref 0

let run_script script =
  let h = Server.Handler.create ~cache_capacity:64 () in
  let model = Hashtbl.create 4 in
  let ok =
    List.for_all
      (fun step ->
        match step with
        | Load (sid, facts) ->
            load_lines h sid (doc_of_facts facts);
            Hashtbl.replace model sid (List.sort_uniq compare facts);
            true
        | Update (sid, op, f) ->
            let facts = Hashtbl.find model sid in
            Hashtbl.replace model sid
              (match op with
              | `Add -> List.sort_uniq compare (f :: facts)
              | `Del -> List.filter (fun g -> g <> f) facts);
            (dispatch_line h (step_text step)).P.status = `Ok
        | Query (sid, q) ->
            let got = dispatch_line h (step_text step) in
            let fresh = Server.Handler.create () in
            load_lines fresh "s" (doc_of_facts (Hashtbl.find model sid));
            let want = dispatch_line fresh ("QUERY s " ^ q) in
            got.P.status = want.P.status
            && List.sort compare got.P.body = List.sort compare want.P.body)
      script
  in
  differential_hits :=
    !differential_hits + Server.Metrics.hits (Server.Handler.metrics h);
  ok

let test_cache_soundness_differential () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200
       ~name:"cached answers = fresh handler's answers"
       (QCheck.make
          ~print:(fun s -> String.concat "\n" (List.map step_text s))
          gen_script)
       run_script);
  Alcotest.(check bool) "the scripts exercised cache hits" true
    (!differential_hits > 0)

(* ---- twin sessions share one instance ------------------------------- *)

(* [blocks] key groups R(k, k+1), R(k, k+2), each with one S tuple
   joining the first: a Boolean coNP query with one unit witness per
   block, on a document large enough that comparing two instances
   outweighs a warm SAT read. *)
let twin_doc_lines ?(reverse = false) blocks =
  let rows =
    List.concat
      (List.init blocks (fun b ->
           let k = 3 * b in
           [
             Printf.sprintf "row R(%d, %d)" k (k + 1);
             Printf.sprintf "row R(%d, %d)" k (k + 2);
             Printf.sprintf "row S(%d, %d)" (k + 1) (k + 1);
           ]))
  in
  [ "relation R(a, b)"; "relation S(c, d)" ]
  @ (if reverse then List.rev rows else rows)
  @ [ "key R(a)"; "key S(c)"; "query q() :- R(X, Y), S(Z, Y)" ]

(* Two LOADs of one text share an instance, so a SAT read on the second
   session finds the cached theory by physical equality, as a read on
   the first does, instead of comparing instances twice.  The same rows
   in reverse order digest alike but carry other tids: that session
   keeps its own instance and answers alike.  Reads go to the engines,
   past the answer cache (the twins' digests share its entries). *)
let test_twin_sessions_share_instance () =
  let h = Server.Handler.create () in
  load_lines h "a" (twin_doc_lines 300);
  load_lines h "b" (twin_doc_lines 300);
  load_lines h "r" (twin_doc_lines ~reverse:true 300);
  let session sid =
    Option.get (Server.Session.find (Server.Handler.sessions h) sid)
  in
  let a = session "a" and b = session "b" and r = session "r" in
  Alcotest.(check bool) "twins share the instance" true
    (a.doc.instance == b.doc.instance);
  Alcotest.(check string) "permuted twin: same digest" a.digest r.digest;
  Alcotest.(check bool) "permuted twin keeps its own instance" false
    (r.doc.instance == a.doc.instance);
  let q =
    match (Cqa.Parse.find_ucq a.doc "q").Logic.Ucq.disjuncts with
    | [ q ] -> q
    | _ -> Alcotest.fail "q is one conjunctive query"
  in
  let read (s : Server.Session.t) = Cqa.Engine.consistent_answers s.engine q in
  let words s =
    ignore (read s);
    let before = Gc.minor_words () in
    ignore (read s);
    Gc.minor_words () -. before
  in
  let wa = words a and wb = words b in
  Alcotest.(check bool)
    (Printf.sprintf "second twin's read %.0f words, first's %.0f" wb wa)
    true
    (wb < 1.5 *. wa);
  Alcotest.(check bool) "the read is a SAT read" true
    ((Cqa.Engine.plan a.engine q).route |> Cqa.Engine.route_label
    = "sat_compilation");
  let answers = read a in
  Alcotest.(check bool) "twin answers alike" true (read b = answers);
  Alcotest.(check bool) "permuted twin answers alike" true (read r = answers)

(* A document LOADed again after its session was CLOSEd, with no twin
   left to share an instance with: the first SAT read verifies the new
   instance against the cached theory's once and files the theory under
   it, so later reads allocate what they did before the CLOSE (minor
   words plus the arrays the major heap takes directly) and the closed
   instance is not kept alive. *)
let test_reload_after_close () =
  let h = Server.Handler.create () in
  let lines = twin_doc_lines 300 in
  load_lines h "a" lines;
  let engine () =
    (Option.get (Server.Session.find (Server.Handler.sessions h) "a")).engine
  in
  let q =
    let doc = (Option.get (Server.Session.find (Server.Handler.sessions h) "a")).doc in
    match (Cqa.Parse.find_ucq doc "q").Logic.Ucq.disjuncts with
    | [ q ] -> q
    | _ -> Alcotest.fail "q is one conjunctive query"
  in
  let read () = Cqa.Engine.consistent_answers (engine ()) q in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let words () =
    ignore (read ());
    let before = allocated () in
    ignore (read ());
    allocated () -. before
  in
  let answers = read () in
  let w0 = words () in
  let closed = Weak.create 1 in
  Weak.set closed 0 (Some (engine ()).Cqa.Engine.instance);
  Alcotest.(check bool) "closed" true
    ((dispatch_line h "CLOSE a").P.status = `Ok);
  load_lines h "a" lines;
  Alcotest.(check bool) "same answers after the reload" true (read () = answers);
  Gc.full_major ();
  Alcotest.(check bool) "the closed instance is collected" false
    (Weak.check closed 0);
  let w1 = words () in
  Alcotest.(check bool)
    (Printf.sprintf "warm read after the reload %.0f words, before %.0f" w1 w0)
    true
    (w1 < 1.2 *. w0)

(* ---- UPDATE/QUERY pairs patch the SAT theory ------------------------- *)

(* A conp-shaped document: the Boolean hard join under keys, two R key
   groups of ten (90 conflict edges) and a contested S key.  The
   updates add and delete tuples under fresh R keys, one of which joins
   S(102, 5) and flips the answer, and delete and re-add a tuple of a
   big group. *)
let conp_doc_lines =
  [ "relation R(a, b)"; "relation S(c, d)" ]
  @ List.init 10 (fun i -> Printf.sprintf "row R(1, %d)" (i + 1))
  @ List.init 10 (fun i -> Printf.sprintf "row R(2, %d)" (i + 11))
  @ [
      "row S(101, 1)"; "row S(101, 11)"; "row S(102, 5)"; "key R(a)";
      "key S(c)"; "query q() :- R(X, Y), S(Z, Y)";
    ]

let conp_updates =
  List.concat
    (List.init 7 (fun j ->
         let k = 50 + j in
         [
           Printf.sprintf "add R(%d, 5)" k; Printf.sprintf "add R(%d, 6)" k;
           Printf.sprintf "del R(%d, 5)" k; Printf.sprintf "del R(%d, 6)" k;
         ]))
  @ [ "del R(1, 3)"; "add R(1, 3)" ]

let test_updates_patch_theory () =
  let h = Server.Handler.create () in
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  load_lines h "s" conp_doc_lines;
  let agrees () =
    let auto = dispatch_line h "QUERY s q" in
    let enum = dispatch_line h "QUERY s q method=enum" in
    Alcotest.(check bool) "query ok" true (auto.P.status = `Ok);
    Alcotest.(check (list string)) "auto = enumeration" enum.P.body auto.P.body;
    auto.P.body
  in
  let first = agrees () in
  let answers =
    first
    :: List.map
         (fun u ->
           let r = dispatch_line h ("UPDATE s " ^ u) in
           Alcotest.(check bool) ("update ok: " ^ u) true (r.P.status = `Ok);
           agrees ())
         conp_updates
  in
  Alcotest.(check int) "30 updates" 30 (List.length conp_updates);
  Alcotest.(check bool) "the answer flips" true
    (List.mem [ "true" ] answers && List.mem [] answers);
  let delta = Obs.Registry.counter_delta ~since:before reg in
  let d name = Option.value ~default:0 (List.assoc_opt name delta) in
  Alcotest.(check int) "one theory build over the run" 1
    (d "cavsat.theory_builds");
  Alcotest.(check int) "every other read patched" 30
    (d "cavsat.theory_patches");
  (* Two sessions of one document share its theory; a write to one moves
     the theory to it, and the other's reads are unchanged. *)
  load_lines h "a" conp_doc_lines;
  load_lines h "b" conp_doc_lines;
  let query sid = (dispatch_line h ("QUERY " ^ sid ^ " q")).P.body in
  let b0 = query "b" and a0 = query "a" in
  Alcotest.(check (list string)) "same document, same answer" b0 a0;
  ignore (dispatch_line h "UPDATE a add R(3, 5)");
  Alcotest.(check (list string)) "a sees its write" [ "true" ] (query "a");
  ignore (dispatch_line h "UPDATE b add R(3, 9)");
  ignore (dispatch_line h "UPDATE b del R(3, 9)");
  Alcotest.(check (list string)) "b is unchanged" b0 (query "b");
  Alcotest.(check (list string)) "b = enumeration"
    (dispatch_line h "QUERY b q method=enum").P.body (query "b")

let suite =
  [
    Alcotest.test_case "UPDATE/QUERY pairs patch the SAT theory" `Quick
      test_updates_patch_theory;
    Alcotest.test_case "twin sessions share one instance" `Quick
      test_twin_sessions_share_instance;
    Alcotest.test_case "a reload after CLOSE re-keys the SAT theory" `Quick
      test_reload_after_close;
    Alcotest.test_case "lru eviction order and capacity" `Quick
      test_lru_eviction;
    Alcotest.test_case "lru overwrite promotes" `Quick test_lru_overwrite;
    Alcotest.test_case "lru remove and clear" `Quick test_lru_remove_clear;
    Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
    Alcotest.test_case "metrics counters and render" `Quick test_metrics;
    Alcotest.test_case "protocol parse ok and errors" `Quick
      test_protocol_parse;
    Alcotest.test_case "cache hit then UPDATE invalidates" `Quick
      test_handler_cache_and_invalidation;
    Alcotest.test_case "UPDATE rebuilds only the touched view" `Quick
      test_update_rebuilds_one_view;
    Alcotest.test_case "re-LOAD with redefined query misses cache" `Quick
      test_handler_reload_redefines_query;
    Alcotest.test_case "UCQ with rewriting method answers ERR" `Quick
      test_handler_ucq_method_mismatch;
    Alcotest.test_case "listen_unix refuses non-socket paths" `Quick
      test_listen_unix_refuses_non_socket;
    Alcotest.test_case "equal instances share cache entries" `Quick
      test_handler_shared_cache_across_sessions;
    Alcotest.test_case "repairs, measure, check" `Quick
      test_handler_repairs_measure_check;
    Alcotest.test_case "REPAIRS past max_int answers ERR" `Quick
      test_handler_repairs_overflow;
    Alcotest.test_case "ERR responses keep the session alive" `Quick
      test_handler_errors_keep_session;
    Alcotest.test_case "unsafe queries rejected at parse time" `Quick
      test_unsafe_query_rejected_at_parse;
    Alcotest.test_case "TRACE toggles the global sink" `Quick test_trace_toggle;
    Alcotest.test_case "EXPLAIN shows the enum/rewriting cost shift" `Quick
      test_explain_cost_shift;
    Alcotest.test_case "EXPLAIN reports cache provenance read-only" `Quick
      test_explain_cache_provenance;
    Alcotest.test_case "long bodies truncate with a marker" `Quick
      test_response_truncation;
    Alcotest.test_case "STATS renders solver counters" `Quick
      test_stats_includes_solver_counters;
    Alcotest.test_case "end-to-end socket round-trip" `Quick test_e2e_socket;
    Alcotest.test_case "ANALYZE memo invalidates on UPDATE" `Quick
      test_analyze_invalidation;
    Alcotest.test_case "ANALYZE memo invalidates on schema re-LOAD" `Quick
      test_analyze_reload_schema_change;
    Alcotest.test_case "EXPLAIN always includes plan branch and verdict" `Quick
      test_explain_always_shows_plan;
    Alcotest.test_case "EXPLAIN self-join: sat_compilation" `Quick
      test_explain_selfjoin_routes_to_sat;
    Alcotest.test_case "Int vs Str constants digest apart" `Quick
      test_typed_constants_do_not_collide;
    Alcotest.test_case "no-op UPDATE keeps the cache" `Quick
      test_noop_update_keeps_cache;
    Alcotest.test_case "typed denial constants fingerprint apart" `Quick
      test_fingerprint_typed_denial;
    Alcotest.test_case "CFD patterns fingerprint apart" `Quick
      test_fingerprint_cfd_pattern;
    Alcotest.test_case "cache soundness differential" `Quick
      test_cache_soundness_differential;
  ]
