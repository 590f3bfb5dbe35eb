(* lib/obs: spans, counters, registries, exporters — and the two
   guarantees the subsystem is built around: Chrome trace output is
   well-formed with balanced B/E events, and disabled tracing costs no
   allocation on the probe fast path. *)

(* ---- spans ----------------------------------------------------------- *)

let test_span_nesting () =
  let (), spans =
    Obs.Trace.collect (fun () ->
        let root = Obs.Trace.start "root" in
        let child = Obs.Trace.start "child" in
        Obs.Trace.attr "k" "v";
        Obs.Trace.finish child;
        let sibling = Obs.Trace.start "sibling" in
        Obs.Trace.finish sibling;
        Obs.Trace.finish root)
  in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let by_name n = List.find (fun (s : Obs.Trace.span) -> s.name = n) spans in
  let root = by_name "root" in
  let child = by_name "child" in
  let sibling = by_name "sibling" in
  Alcotest.(check int) "root is a root" 0 root.parent;
  Alcotest.(check int) "child under root" root.id child.parent;
  Alcotest.(check int) "sibling under root" root.id sibling.parent;
  Alcotest.(check (list (pair string string)))
    "attr lands on the innermost open span" [ ("k", "v") ] child.attrs;
  (* Start order: ids are increasing, and [spans] returns start order. *)
  Alcotest.(check bool) "start order" true
    (List.map (fun (s : Obs.Trace.span) -> s.name) spans
    = [ "root"; "child"; "sibling" ]);
  Alcotest.(check bool) "child within root" true
    (child.t0 >= root.t0 && child.t1 <= root.t1)

let test_span_disabled () =
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  let id = Obs.Trace.start "ghost" in
  Alcotest.(check bool) "none token" true (id = Obs.Trace.none);
  Obs.Trace.attr "k" "v";
  Obs.Trace.finish id;
  Alcotest.(check int) "no spans collected" 0 (List.length (Obs.Trace.spans ()))

let test_span_exception_safety () =
  Obs.Trace.set_enabled false;
  let result =
    try
      ignore
        (Obs.Trace.collect (fun () ->
             Obs.Trace.with_span "boom" (fun () -> failwith "bang")));
      "no exception"
    with Failure msg -> msg
  in
  Alcotest.(check string) "exception propagates" "bang" result;
  (* The sink in force before collect is restored. *)
  Alcotest.(check bool) "tracing off after collect" false
    (Obs.Trace.is_enabled ())

let test_span_drain () =
  let (), _ =
    Obs.Trace.collect (fun () ->
        Obs.Trace.with_span "a" (fun () -> ());
        let drained = Obs.Trace.drain () in
        Alcotest.(check int) "drain takes the finished span" 1
          (List.length drained);
        Obs.Trace.with_span "b" (fun () -> ());
        let again = Obs.Trace.drain () in
        Alcotest.(check int) "second drain sees only new spans" 1
          (List.length again);
        (* Ids keep increasing across drains. *)
        let a = List.hd drained and b = List.hd again in
        Alcotest.(check bool) "id sequence persists" true
          (b.Obs.Trace.id > a.Obs.Trace.id))
  in
  ()

(* ---- counters and registries ----------------------------------------- *)

let test_counter_registry_swap () =
  let c = Obs.Counter.make "test.swap_counter" in
  let r1 = Obs.Registry.create () and r2 = Obs.Registry.create () in
  Obs.Registry.set_current r1;
  Obs.Counter.incr c;
  Obs.Counter.incr c;
  Obs.Registry.set_current r2;
  Obs.Counter.incr c;
  Alcotest.(check int) "r1 kept its increments" 2
    (Obs.Registry.counter_value r1 "test.swap_counter");
  Alcotest.(check int) "r2 saw the later one" 1
    (Obs.Registry.counter_value r2 "test.swap_counter");
  Alcotest.(check int) "handle reads the current registry" 1
    (Obs.Counter.value c);
  let delta =
    Obs.Registry.counter_delta
      ~since:[ ("test.swap_counter", 0) ]
      r2
  in
  Alcotest.(check (list (pair string int))) "delta" [ ("test.swap_counter", 1) ] delta

let test_histogram_quantiles () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "lat" in
  (* 100 observations spread inside the 100us..1ms decade. *)
  for i = 1 to 100 do
    Obs.Registry.observe h (1e-4 +. (float_of_int i *. 8e-6))
  done;
  Alcotest.(check int) "count" 100 (Obs.Registry.hist_count h);
  let p50 = Obs.Registry.quantile h 0.5 in
  Alcotest.(check bool) "p50 inside the covering bucket" true
    (p50 >= 1e-4 && p50 <= 1e-3);
  let p99 = Obs.Registry.quantile h 0.99 in
  Alcotest.(check bool) "p99 >= p50" true (p99 >= p50);
  let line = Obs.Registry.render_histogram "lat" h in
  Alcotest.(check bool) "labelled buckets" true
    (try
       ignore (Str.search_forward (Str.regexp_string "hist=le_1us:") line 0);
       true
     with Not_found -> false)

(* A value equal to a bound is in that bound's [le] bucket, on the
   registry exposition and on the workload store's alike: both render
   one histogram type through one sample renderer. *)
let test_histogram_le_boundary () =
  let has text line = List.mem line (String.split_on_char '\n' text) in
  let r = Obs.Registry.create () in
  Obs.Registry.observe (Obs.Registry.histogram r "lat") 1e-3;
  let text = Obs.Prometheus.render r in
  Alcotest.(check bool) "registry: le=0.001 holds 1ms" true
    (has text {|cqa_lat_bucket{le="0.001"} 1|});
  Alcotest.(check bool) "registry: le=0.0001 does not" true
    (has text {|cqa_lat_bucket{le="0.0001"} 0|});
  let st = Obs.Stats.create () in
  Obs.Stats.record st ~fingerprint:"q" ~branch:"b" ~wall_s:1e-3 ();
  let text = String.concat "\n" (Obs.Stats.prometheus_lines st) in
  Alcotest.(check bool) "workload: le=0.001 holds 1ms" true
    (has text {|cqa_workload_branch_seconds_bucket{branch="b",le="0.001"} 1|});
  Alcotest.(check bool) "workload: le=0.0001 does not" true
    (has text {|cqa_workload_branch_seconds_bucket{branch="b",le="0.0001"} 0|})

(* ---- exporters -------------------------------------------------------- *)

let collect_tree () =
  snd
    (Obs.Trace.collect (fun () ->
         Obs.Trace.with_span "outer" (fun () ->
             Obs.Trace.with_span ~attrs:[ ("q", "emp\"loyee") ] "inner"
               (fun () -> ()))))

let test_tree_render () =
  let lines = Obs.Export.tree (collect_tree ()) in
  match lines with
  | [ outer; inner ] ->
      Alcotest.(check bool) "outer unindented" true
        (String.length outer > 5 && String.sub outer 0 5 = "outer");
      Alcotest.(check bool) "inner indented" true
        (String.length inner > 2 && String.sub inner 0 2 = "  ")
  | _ -> Alcotest.fail "expected two lines"

(* A minimal JSON well-formedness checker: enough grammar to validate
   what Export emits without a JSON dependency. *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then s.[!pos] else fail () in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t') then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c = if peek () = c then advance () else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and literal lit =
    String.iter (fun c -> if peek () = c then advance () else fail ()) lit
  and number () =
    let accept c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    if not (accept (peek ())) then fail ();
    while !pos < n && accept s.[!pos] do
      advance ()
    done
  and string_lit () =
    expect '"';
    let rec go () =
      if !pos >= n then fail ();
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail ();
          advance ();
          go ()
      | c when Char.code c < 0x20 -> fail ()
      | _ ->
          advance ();
          go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        if peek () = ',' then begin
          advance ();
          members ()
        end
        else expect '}'
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        if peek () = ',' then begin
          advance ();
          elements ()
        end
        else expect ']'
      in
      elements ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

(* Extract every ("ph", name) pair from a chrome trace in order and check
   B/E events balance like parentheses, per (pid, tid, name). *)
let chrome_events_balance s =
  (* Events all match the exact shapes Export.chrome writes, so a light
     scan is reliable: find "ph":"B" / "ph":"E" and the preceding name. *)
  let events = ref [] in
  let re = Str.regexp "\"name\":\\(\"[^\"]*\"\\),\"cat\":\"cqa\",\"ph\":\"\\([BE]\\)\"" in
  let idx = ref 0 in
  (try
     while true do
       let at = Str.search_forward re s !idx in
       events := (Str.matched_group 1 s, Str.matched_group 2 s) :: !events;
       idx := at + 1
     done
   with Not_found -> ());
  let events = List.rev !events in
  let rec go stack = function
    | [] -> stack = []
    | (name, "B") :: rest -> go (name :: stack) rest
    | (name, "E") :: rest -> (
        match stack with
        | top :: stack' when top = name -> go stack' rest
        | _ -> false)
    | _ -> false
  in
  go [] events

let chrome_of_random_spans depth fanout =
  snd
    (Obs.Trace.collect (fun () ->
         let rec build d =
           Obs.Trace.with_span (Printf.sprintf "n%d" d) (fun () ->
               if d < depth then
                 for _ = 1 to fanout do
                   build (d + 1)
                 done;
               Obs.Trace.attr "weird" "a\"b\\c\nd")
         in
         build 0))
  |> Obs.Export.chrome

let qcheck_chrome_well_formed =
  QCheck.Test.make ~count:50 ~name:"chrome trace is well-formed, B/E balance"
    QCheck.(pair (int_range 0 3) (int_range 1 3))
    (fun (depth, fanout) ->
      let doc = chrome_of_random_spans depth fanout in
      json_well_formed doc && chrome_events_balance doc)

let test_jsonl_well_formed () =
  let spans = collect_tree () in
  List.iter
    (fun line ->
      Alcotest.(check bool) "jsonl line parses" true (json_well_formed line))
    (Obs.Export.jsonl spans)

(* ---- the no-allocation guard ----------------------------------------- *)

let test_disabled_probes_allocate_nothing () =
  Obs.Trace.set_enabled false;
  Alcotest.(check bool) "no progress context" false (Obs.Progress.armed ());
  let c = Obs.Counter.make "test.hot_counter" in
  let r = Obs.Registry.create () in
  Obs.Registry.set_current r;
  let probe () =
    let sp = Obs.Trace.start "hot" in
    Obs.Counter.incr c;
    if Obs.Trace.is_enabled () then Obs.Trace.attr_int "n" 42;
    Obs.Trace.finish sp;
    Obs.Trace.finish (Obs.Trace.start_phase "hot.phase")
  in
  (* Warm up: the counter handle resolves its cell once. *)
  for _ = 1 to 100 do
    probe ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    probe ()
  done;
  let words = Gc.minor_words () -. before in
  (* Gc.minor_words itself allocates its boxed float results; anything
     beyond a small constant means the probes allocate per call. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-probe allocation (%.0f words for 10k probes)" words)
    true (words < 256.0)

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "disabled tracing collects nothing" `Quick
      test_span_disabled;
    Alcotest.test_case "with_span is exception-safe" `Quick
      test_span_exception_safety;
    Alcotest.test_case "drain keeps the id sequence" `Quick test_span_drain;
    Alcotest.test_case "counters follow registry swaps" `Quick
      test_counter_registry_swap;
    Alcotest.test_case "histogram quantiles and labels" `Quick
      test_histogram_quantiles;
    Alcotest.test_case "a value on a bound is in its le bucket" `Quick
      test_histogram_le_boundary;
    Alcotest.test_case "tree exporter indents children" `Quick
      test_tree_render;
    Alcotest.test_case "jsonl lines are well-formed" `Quick
      test_jsonl_well_formed;
    QCheck_alcotest.to_alcotest qcheck_chrome_well_formed;
    Alcotest.test_case "disabled probes do not allocate" `Quick
      test_disabled_probes_allocate_nothing;
  ]
