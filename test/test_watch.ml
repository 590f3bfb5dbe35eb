(* cqa-watch: progress heartbeats, per-request deadlines, the INFLIGHT
   table, and the flight recorder.

   Deadlines are tested against a scripted clock that advances a fixed
   step per read, so "the budget blows" is a deterministic statement
   about probe counts, not wall time. *)

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

(* A clock advancing [step] seconds per read. *)
let stepping_clock ?(step = 0.01) () =
  let now = ref 0.0 in
  fun () ->
    now := !now +. step;
    !now

(* Force a deadline check on every tick for the duration of [f]. *)
let with_interval n f =
  let prev = Obs.Progress.check_interval () in
  Obs.Progress.set_check_interval n;
  Fun.protect ~finally:(fun () -> Obs.Progress.set_check_interval prev) f

let handler ?default_timeout_ms ?max_body_lines ?(step = 0.01) () =
  let h =
    Server.Handler.create ?default_timeout_ms ?max_body_lines ~progress:true
      ~clock:(stepping_clock ~step ()) ()
  in
  let r = Server.Handler.dispatch h ~payload:doc_lines (P.Load "s1") in
  Alcotest.(check bool) "loaded" true (r.P.status = `Ok);
  h

let query ?timeout_ms ?(method_ = P.Enum) () =
  P.Query { sid = "s1"; name = "q"; method_; semantics = P.S; timeout_ms }

(* ---- deadlines -------------------------------------------------------- *)

let test_deadline_expires () =
  with_interval 1 (fun () ->
      let h = handler () in
      (* The clock advances 10ms per read; a 1ms budget is blown by the
         first heartbeat, and the next tick raises. *)
      let r = Server.Handler.dispatch h (query ~timeout_ms:1.0 ()) in
      Alcotest.(check bool) "is an error" true (r.P.status = `Err);
      let starts_with p s =
        String.length s >= String.length p && String.sub s 0 (String.length p) = p
      in
      Alcotest.(check bool)
        (Printf.sprintf "structured deadline head: %s" r.P.head)
        true
        (starts_with "deadline budget_ms=1 " r.P.head);
      let has needle =
        let re = Str.regexp_string needle in
        try
          ignore (Str.search_forward re r.P.head 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) "carries phase" true (has "phase=");
      Alcotest.(check bool) "carries work" true (has "work=");
      Alcotest.(check bool) "carries branch" true (has "branch="))

let test_deadline_unaffected_under_budget () =
  with_interval 1 (fun () ->
      let h = handler () in
      let r = Server.Handler.dispatch h (query ~timeout_ms:1e9 ()) in
      Alcotest.(check bool) "ok" true (r.P.status = `Ok);
      Alcotest.(check string) "answers" "answers=2" r.P.head)

let test_default_timeout_applies () =
  with_interval 1 (fun () ->
      let h = handler ~default_timeout_ms:1.0 () in
      let r = Server.Handler.dispatch h (query ()) in
      Alcotest.(check bool) "server default enforced" true (r.P.status = `Err);
      (* An explicit generous timeout= overrides the tight default. *)
      let r = Server.Handler.dispatch h (query ~timeout_ms:1e9 ()) in
      Alcotest.(check bool) "explicit timeout wins" true (r.P.status = `Ok))

let test_deadline_does_not_poison_cache () =
  with_interval 1 (fun () ->
      let h = handler () in
      let r = Server.Handler.dispatch h (query ~timeout_ms:1.0 ()) in
      Alcotest.(check bool) "first attempt times out" true (r.P.status = `Err);
      (* The timed-out answer must not have been cached as the result of
         this query. *)
      let r = Server.Handler.dispatch h (query ~timeout_ms:1e9 ()) in
      Alcotest.(check bool) "retry succeeds" true (r.P.status = `Ok);
      Alcotest.(check string) "retry has the real answer" "answers=2" r.P.head)

(* A deadline that blows inside a SAT search on a cached theory must not
   leave the shared solver's assignment dirty: the same query retried
   without a deadline returns the enumeration answer.  The clock
   advances 10ms per read and every tick reads it, so the budgets sweep
   the cut across the request's ticks; each budget runs on its own query
   name, so no retry is answered from the cache. *)
let test_sat_deadline_keeps_theory_clean () =
  let budgets = 1.0 :: List.init 30 (fun k -> float ((10 * k) + 15)) in
  let names = List.mapi (fun i _ -> Printf.sprintf "q%d" i) budgets in
  (* X = 1..4 are certain; X = 5 is refuted by the repair keeping T(5, 7)
     (no T row has key 7), a satisfiable search that assigns every
     variable. *)
  let lines =
    [ "relation T(k, v)"; "key T(k)" ]
    @ List.concat_map
        (fun i ->
          [
            Printf.sprintf "row T(%d, %d)" i (i + 1);
            Printf.sprintf "row T(%d, %d)" i (i + 2);
          ])
        [ 1; 2; 3; 4; 5; 6 ]
    @ List.map
        (fun n -> Printf.sprintf "query %s(X) :- T(X, Y), T(Y, Z)" n)
        ("warm" :: names)
  in
  let run ?timeout_ms h name method_ =
    Server.Handler.dispatch h
      (P.Query { sid = "s1"; name; method_; semantics = P.S; timeout_ms })
  in
  with_interval 1 (fun () ->
      let h =
        Server.Handler.create ~progress:true ~clock:(stepping_clock ()) ()
      in
      let r = Server.Handler.dispatch h ~payload:lines (P.Load "s1") in
      Alcotest.(check bool) "loaded" true (r.P.status = `Ok);
      (* Build and cache the repair theory before any deadline fires. *)
      let expected = (run h "warm" P.Enum).P.body in
      Alcotest.(check (list string)) "warm-up SAT answer" expected
        (run h "warm" P.Sat).P.body;
      let reg = Server.Metrics.registry (Server.Handler.metrics h) in
      let decisions () = Obs.Registry.counter_value reg "sat.dpll.decisions" in
      let cut_mid_search = ref 0 in
      List.iter2
        (fun name budget ->
          let d0 = decisions () in
          let r = run ~timeout_ms:budget h name P.Sat in
          if r.P.status = `Err && decisions () > d0 then incr cut_mid_search;
          Alcotest.(check (list string))
            (Printf.sprintf "%s after timeout=%.0f" name budget)
            expected (run h name P.Sat).P.body)
        names budgets;
      Alcotest.(check bool) "some deadlines blew inside the search" true
        (!cut_mid_search > 0))

let test_counters_move () =
  with_interval 1 (fun () ->
      let h = handler () in
      let reg = Server.Metrics.registry (Server.Handler.metrics h) in
      let expired () =
        Obs.Registry.counter_value reg "progress.deadline_expired"
      in
      let beats () = Obs.Registry.counter_value reg "progress.heartbeats" in
      let e0 = expired () and b0 = beats () in
      ignore (Server.Handler.dispatch h (query ~timeout_ms:1.0 ()));
      Alcotest.(check bool) "deadline_expired incremented" true
        (expired () > e0);
      Alcotest.(check bool) "heartbeats incremented" true (beats () > b0))

(* ---- INFLIGHT --------------------------------------------------------- *)

let test_inflight_shows_then_clears () =
  let h = handler () in
  let ctx =
    Obs.Progress.create ~deadline_s:60.0 ~session:"s1" ~label:"QUERY" ~id:41 ()
  in
  let r = Obs.Progress.run ctx (fun () -> Server.Handler.dispatch h P.Inflight) in
  Alcotest.(check bool) "ok" true (r.P.status = `Ok);
  Alcotest.(check string) "one live request" "inflight=1" r.P.head;
  (match r.P.body with
  | [ line ] ->
      let has needle =
        try
          ignore (Str.search_forward (Str.regexp_string needle) line 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) "rid" true (has "rid=41");
      Alcotest.(check bool) "session" true (has "sid=s1");
      Alcotest.(check bool) "phase" true (has "phase=");
      Alcotest.(check bool) "heartbeat age" true (has "heartbeat_age_ms=");
      Alcotest.(check bool) "deadline" true (has "deadline_in_ms=")
  | body ->
      Alcotest.fail (Printf.sprintf "expected one body line, got %d"
                       (List.length body)));
  (* Once the context is uninstalled the table is empty again. *)
  let r = Server.Handler.dispatch h P.Inflight in
  Alcotest.(check string) "cleared" "inflight=0" r.P.head;
  Alcotest.(check int) "no body" 0 (List.length r.P.body)

let test_inflight_gauges () =
  let h = handler () in
  let reg = Server.Metrics.registry (Server.Handler.metrics h) in
  let ctx = Obs.Progress.create ~session:"s1" ~label:"QUERY" ~id:7 () in
  let inflight_gauge () =
    Option.value ~default:(-1.0)
      (Obs.Registry.gauge_value reg "inflight.requests")
  in
  Obs.Progress.run ctx (fun () ->
      Server.Handler.sample_gauges h;
      Alcotest.(check (float 0.0)) "one in flight" 1.0 (inflight_gauge ()));
  Server.Handler.sample_gauges h;
  Alcotest.(check (float 0.0)) "none in flight" 0.0 (inflight_gauge ())

(* ---- the flight recorder --------------------------------------------- *)

let test_explain_dumps_recorder () =
  let h = handler () in
  let r =
    Server.Handler.dispatch h
      (P.Explain
         { sid = "s1"; name = "q"; method_ = P.Enum; semantics = P.S;
           timeout_ms = None })
  in
  Alcotest.(check bool) "explain ok" true (r.P.status = `Ok);
  Alcotest.(check bool) "has a -- progress section" true
    (List.mem "-- progress" r.P.body);
  (* Everything after the marker is a snapshot line. *)
  let rec after = function
    | [] -> []
    | "-- progress" :: rest -> rest
    | _ :: rest -> after rest
  in
  let snapshots = after r.P.body in
  Alcotest.(check bool) "non-empty trail" true (snapshots <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "snapshot line shape: %s" l)
        true
        (Str.string_match (Str.regexp {|^t\+[0-9.]+ms phase=.* work=[0-9]+|}) l 0))
    snapshots

let test_history_bounded () =
  let clock = stepping_clock ~step:0.001 () in
  (* The check interval is captured at create time. *)
  with_interval 1 (fun () ->
      let c = Obs.Progress.create ~ring:4 ~clock ~label:"X" ~id:1 () in
      Obs.Progress.run c (fun () ->
          for _ = 1 to 100 do
            Obs.Progress.tick ()
          done);
      Alcotest.(check int) "ring keeps the last 4" 4
        (List.length (Obs.Progress.history c)))

(* ---- satellite: zero-observation histograms render "-" --------------- *)

let test_empty_histogram_renders_dash () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "lat" in
  let line = Obs.Registry.render_histogram "lat" h in
  let has needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) line 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool)
    (Printf.sprintf "dashes for empty histogram: %s" line)
    true
    (has "count=0" && has "p50_us=-" && has "p95_us=-" && has "p99_us=-"
   && has "mean_us=-")

(* ---- satellite: clamp truncation is counted -------------------------- *)

let test_clamp_counter () =
  let h = handler ~max_body_lines:5 () in
  let reg = Server.Metrics.registry (Server.Handler.metrics h) in
  Alcotest.(check int) "pre-created at zero" 0
    (Obs.Registry.counter_value reg "protocol.clamped_total");
  (* METRICS is far over 5 lines, so the response is truncated. *)
  let r = Server.Handler.dispatch h P.Metrics in
  Alcotest.(check bool) "truncation marker present" true
    (match List.rev r.P.body with
    | last :: _ ->
        String.length last > 12 && String.sub last 0 12 = "...truncated"
    | [] -> false);
  Alcotest.(check int) "counted" 1
    (Obs.Registry.counter_value reg "protocol.clamped_total")

(* ---- protocol --------------------------------------------------------- *)

let test_parse_timeout_and_inflight () =
  (match P.parse "QUERY s1 q timeout=250 method=enum" with
  | Ok (P.Query { timeout_ms = Some ms; method_ = P.Enum; _ }) ->
      Alcotest.(check (float 0.0)) "ms" 250.0 ms
  | _ -> Alcotest.fail "QUERY timeout= did not parse");
  (match P.parse "QUERY s1 q timeout=0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "timeout=0 must be rejected");
  (match P.parse "QUERY s1 q timeout=soon" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "timeout=soon must be rejected");
  (match P.parse "inflight" with
  | Ok P.Inflight -> ()
  | _ -> Alcotest.fail "INFLIGHT did not parse");
  match P.parse "INFLIGHT now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "INFLIGHT takes no arguments"

(* ---- disabled-path allocation guard ---------------------------------- *)

(* Minor words allocated by 10k calls of [probe], after a warm-up. *)
let minor_words_of probe =
  for _ = 1 to 100 do
    probe ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    probe ()
  done;
  Gc.minor_words () -. before

let test_disabled_probes_do_not_allocate () =
  Alcotest.(check bool) "no ambient context" false (Obs.Progress.armed ());
  let probe () =
    Obs.Progress.tick ();
    Obs.Progress.phase "hot";
    Obs.Progress.bound 3;
    Obs.Progress.set_branch "x";
    Obs.Trace.finish (Obs.Trace.start_phase "hot")
  in
  let words = minor_words_of probe in
  (* Gc.minor_words itself allocates its boxed float results; anything
     beyond a small constant means the probes allocate per call. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-probe allocation (%.0f words for 10k probes)" words)
    true (words < 256.0)

(* Armed, a phase point costs exactly the heartbeat [Progress.phase]
   takes (the flight-recorder snapshot); the span half stays free while
   tracing is off. *)
let test_armed_phase_probe_allocates_only_the_beat () =
  Obs.Trace.set_enabled false;
  let c = Obs.Progress.create ~ring:4 ~clock:(stepping_clock ()) ~label:"Q" ~id:1 () in
  let beat, phase_point =
    Obs.Progress.run c (fun () ->
        let beat = minor_words_of (fun () -> Obs.Progress.phase "hot") in
        (beat, minor_words_of (fun () -> Obs.Trace.finish (Obs.Trace.start_phase "hot"))))
  in
  Alcotest.(check bool) "armed: the beat records a snapshot" true (beat > 256.0);
  Alcotest.(check bool)
    (Printf.sprintf "phase point %.0f words vs bare beat %.0f for 10k calls"
       phase_point beat)
    true
    (phase_point <= beat +. 256.0)

(* ---- qcheck: heartbeat monotonicity ---------------------------------- *)

(* Whatever interleaving of ticks and phase changes a request performs,
   the flight recorder reads as a monotone trail: work counts and
   relative timestamps never decrease, and the live work counter equals
   the number of ticks. *)
let prop_heartbeat_monotone =
  QCheck.Test.make ~count:200 ~name:"flight recorder is monotone"
    QCheck.(list_of_size Gen.(int_range 0 80) bool)
    (fun ops ->
      let clock = stepping_clock ~step:0.001 () in
      let c = Obs.Progress.create ~ring:16 ~clock ~label:"Q" ~id:1 () in
      let prev = Obs.Progress.check_interval () in
      Obs.Progress.set_check_interval 1;
      Fun.protect
        ~finally:(fun () -> Obs.Progress.set_check_interval prev)
        (fun () ->
          Obs.Progress.run c (fun () ->
              List.iteri
                (fun i tick ->
                  if tick then Obs.Progress.tick ()
                  else Obs.Progress.phase (Printf.sprintf "p%d" (i mod 3)))
                ops));
      let ticks = List.length (List.filter Fun.id ops) in
      let history = Obs.Progress.history c in
      let monotone =
        let rec go = function
          | a :: (b :: _ as rest) ->
              a.Obs.Progress.s_work <= b.Obs.Progress.s_work
              && a.Obs.Progress.at <= b.Obs.Progress.at
              && go rest
          | _ -> true
        in
        go history
      in
      monotone && Obs.Progress.work c = ticks)

let suite =
  [
    Alcotest.test_case "deadline expires to a structured ERR" `Quick
      test_deadline_expires;
    Alcotest.test_case "generous budget leaves the answer intact" `Quick
      test_deadline_unaffected_under_budget;
    Alcotest.test_case "--default-timeout-ms applies, timeout= overrides"
      `Quick test_default_timeout_applies;
    Alcotest.test_case "a timeout never poisons the cache" `Quick
      test_deadline_does_not_poison_cache;
    Alcotest.test_case "a SAT deadline leaves the cached theory clean"
      `Quick test_sat_deadline_keeps_theory_clean;
    Alcotest.test_case "deadline and heartbeat counters move" `Quick
      test_counters_move;
    Alcotest.test_case "INFLIGHT shows a live request, then clears" `Quick
      test_inflight_shows_then_clears;
    Alcotest.test_case "inflight gauges rise and fall" `Quick
      test_inflight_gauges;
    Alcotest.test_case "EXPLAIN dumps the flight recorder" `Quick
      test_explain_dumps_recorder;
    Alcotest.test_case "the recorder ring is bounded" `Quick
      test_history_bounded;
    Alcotest.test_case "empty histograms render dashes" `Quick
      test_empty_histogram_renders_dash;
    Alcotest.test_case "clamp truncation is counted" `Quick test_clamp_counter;
    Alcotest.test_case "timeout= and INFLIGHT parse" `Quick
      test_parse_timeout_and_inflight;
    Alcotest.test_case "disabled probes do not allocate" `Quick
      test_disabled_probes_do_not_allocate;
    Alcotest.test_case "an armed phase point allocates only its beat" `Quick
      test_armed_phase_probe_allocates_only_the_beat;
    QCheck_alcotest.to_alcotest prop_heartbeat_monotone;
  ]
