(* cqa-scope: query fingerprints, the workload statements store, the
   tail sampler, line-aware clamping, and the WORKLOAD surface.

   The fingerprint properties pin the identity down: invariant under
   variable renaming and constant substitution, but distinct for
   distinct query shapes.  The sampler tests drive it with stubbed
   wall times — it never reads a clock — and check that exactly the
   over-threshold and error traces are retained within the ring
   bound. *)

module P = Server.Protocol
module T = Logic.Term
module A = Logic.Atom
module C = Logic.Cmp
module Cq = Logic.Cq
module Ucq = Logic.Ucq
module Fp = Cqa.Fingerprint

(* ---- fingerprint generators ------------------------------------------ *)

let rels = [| ("R", 1); ("S", 2); ("T", 3) |]
let var_pool = [| "X"; "Y"; "Z"; "W" |]

let gen_term =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> T.var var_pool.(i)) (int_range 0 3));
        (1, map T.int (int_range 0 9));
        (1, map T.str (oneofl [ "a"; "b"; "smith" ]));
      ])

let gen_atom =
  QCheck2.Gen.(
    int_range 0 2 >>= fun r ->
    let rel, ar = rels.(r) in
    map (A.make rel) (list_repeat ar gen_term))

let gen_cq =
  QCheck2.Gen.(
    list_size (int_range 1 3) gen_atom >>= fun body ->
    let bvars =
      match List.concat_map A.vars body with [] -> [ "X" ] | vs -> vs
    in
    list_size (int_range 0 2) (oneofl bvars) >>= fun head ->
    let gen_comp =
      oneofl bvars >>= fun v ->
      map2
        (fun op c -> C.make op (T.var v) (T.int c))
        (oneofl [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ])
        (int_range 0 9)
    in
    list_size (int_range 0 2) gen_comp >>= fun comps ->
    return (Cq.make ~name:"q" ~comps (List.map T.var head) body))

(* Rewrite every term of a query — heads, atom arguments, comparison
   sides — with one function. *)
let map_terms f (q : Cq.t) =
  {
    q with
    Cq.head = List.map f q.Cq.head;
    body = List.map (fun (a : A.t) -> { a with A.args = List.map f a.args }) q.Cq.body;
    comps =
      List.map
        (fun (c : C.t) -> { c with C.left = f c.left; right = f c.right })
        q.Cq.comps;
  }

let prop_rename_invariant =
  QCheck2.Test.make ~count:300
    ~name:"fingerprint invariant under variable renaming" gen_cq (fun q ->
      let renamed =
        map_terms (function T.Var v -> T.Var ("zz" ^ v) | t -> t) q
      in
      Fp.cq q = Fp.cq renamed)

let prop_const_invariant =
  QCheck2.Test.make ~count:300
    ~name:"fingerprint invariant under constant substitution" gen_cq (fun q ->
      let subst = map_terms (function T.Const _ -> T.int 99 | t -> t) q in
      let subst' = map_terms (function T.Const _ -> T.str "other" | t -> t) q in
      Fp.cq q = Fp.cq subst && Fp.cq q = Fp.cq subst')

let prop_shape_distinguished =
  QCheck2.Test.make ~count:300
    ~name:"fingerprint distinguishes distinct shapes" gen_cq (fun q ->
      let extra_atom =
        { q with Cq.body = q.Cq.body @ [ A.make "R" [ T.var "X" ] ] }
      in
      let renamed_rel =
        match q.Cq.body with
        | a :: rest -> { q with Cq.body = { a with A.rel = a.A.rel ^ "x" } :: rest }
        | [] -> assert false
      in
      Fp.cq q <> Fp.cq extra_atom && Fp.cq q <> Fp.cq renamed_rel)

let test_fingerprint_examples () =
  let q =
    Cq.make ~name:"q"
      ~comps:[ C.neq (T.var "X") (T.str "smith") ]
      [ T.var "X" ]
      [ A.make "Emp" [ T.var "X"; T.int 5000 ] ]
  in
  Alcotest.(check string)
    "docstring example" "(v0):-Emp(v0,?),v0!=?" (Fp.cq q);
  (* the query's own name is not part of the shape *)
  Alcotest.(check string)
    "name dropped"
    (Fp.cq q)
    (Fp.cq { q with Cq.name = "renamed" });
  (* union fingerprints are disjunct-order independent *)
  let a = Cq.make [ T.var "X" ] [ A.make "R" [ T.var "X" ] ] in
  let b = Cq.make [ T.var "X" ] [ A.make "S" [ T.var "X"; T.var "Y" ] ] in
  Alcotest.(check string)
    "union disjunct order"
    (Fp.ucq (Ucq.make [ a; b ]))
    (Fp.ucq (Ucq.make [ b; a ]));
  Alcotest.(check string)
    "singleton union = cq" (Fp.cq a)
    (Fp.ucq (Ucq.of_cq a))

(* ---- the tail sampler ------------------------------------------------ *)

let offer_seq t reqs =
  List.map
    (fun (rid, wall_s, ok) ->
      Obs.Sampler.offer t ~rid ~command:"QUERY" ~wall_s ~ok [])
    reqs

let retained_rids t =
  List.map (fun (r : Obs.Sampler.record) -> r.rid) (Obs.Sampler.retained t)

let test_sampler_retains_exactly_slow_and_errors () =
  let t = Obs.Sampler.create ~capacity:8 ~threshold_s:0.100 () in
  ignore
    (offer_seq t
       [
         (1, 0.010, true) (* fast, ok: dropped *);
         (2, 0.250, true) (* over threshold: Slow *);
         (3, 0.005, false) (* failed: Error *);
         (4, 0.100, true) (* exactly at threshold: Slow *);
         (5, 0.099, true) (* just under: dropped *);
       ]);
  Alcotest.(check (list int)) "exactly the slow/error requests" [ 2; 3; 4 ]
    (retained_rids t);
  let reasons =
    List.map
      (fun (r : Obs.Sampler.record) -> Obs.Sampler.reason_label r.reason)
      (Obs.Sampler.retained t)
  in
  Alcotest.(check (list string)) "reasons" [ "slow"; "error"; "slow" ] reasons;
  Alcotest.(check int) "seen" 5 (Obs.Sampler.seen t);
  Alcotest.(check int) "kept" 3 (Obs.Sampler.kept t)

let test_sampler_error_beats_slow () =
  let t = Obs.Sampler.create ~threshold_s:0.1 ~sample_every:1 () in
  (match Obs.Sampler.offer t ~rid:1 ~command:"Q" ~wall_s:9.9 ~ok:false [] with
  | Some Obs.Sampler.Error -> ()
  | _ -> Alcotest.fail "over-threshold failure must retain as Error");
  match Obs.Sampler.offer t ~rid:2 ~command:"Q" ~wall_s:0.001 ~ok:true [] with
  | Some Obs.Sampler.Sampled -> ()
  | _ -> Alcotest.fail "1-in-1 sampling must retain fast requests"

let test_sampler_reservoir_grid () =
  let t = Obs.Sampler.create ~capacity:8 ~sample_every:3 () in
  ignore
    (offer_seq t
       (List.init 9 (fun i -> (i + 1, 0.001, true))));
  (* deterministic 1-in-3: every third offer is retained *)
  Alcotest.(check (list int)) "the 1-in-3 grid" [ 3; 6; 9 ] (retained_rids t)

let test_sampler_ring_bound () =
  let t = Obs.Sampler.create ~capacity:2 ~threshold_s:0.0 () in
  ignore (offer_seq t (List.init 5 (fun i -> (i + 1, 1.0, true))));
  Alcotest.(check (list int)) "oldest overwritten, oldest-first order" [ 4; 5 ]
    (retained_rids t);
  Alcotest.(check int) "kept counts every retention" 5 (Obs.Sampler.kept t);
  Alcotest.(check int) "overwritten" 3 (Obs.Sampler.overwritten t);
  Obs.Sampler.clear t;
  Alcotest.(check (list int)) "clear empties the ring" [] (retained_rids t);
  Alcotest.(check int) "clear restarts seen" 0 (Obs.Sampler.seen t)

(* ---- line-aware clamping --------------------------------------------- *)

let test_clamp_splits_embedded_newlines () =
  (* One body element carrying three physical lines: the clamp counts
     and truncates physical lines, never mid-element, so a machine
     consumer reading the wire sees no torn line. *)
  let r = P.ok ~body:[ "a\nb\nc"; "d" ] "h" in
  let clamped = P.clamp ~max_lines:10 r in
  Alcotest.(check (list string))
    "embedded newlines split" [ "a"; "b"; "c"; "d" ] clamped.P.body;
  let truncated = P.clamp ~max_lines:2 r in
  Alcotest.(check (list string))
    "truncation on a line boundary"
    [ "a"; "b"; "...truncated (2 of 4 lines)" ]
    truncated.P.body;
  (* a terminator smuggled inside a multi-line element is still escaped *)
  let dotted = P.clamp (P.ok ~body:[ "x\n.\ny" ] "h") in
  Alcotest.(check (list string)) "embedded terminator indented"
    [ "x"; " ."; "y" ] dotted.P.body;
  (* rendered wire text ends exactly one response *)
  let wire = P.render dotted in
  let dots =
    String.split_on_char '\n' wire |> List.filter (fun l -> l = ".")
  in
  Alcotest.(check int) "exactly one terminator on the wire" 1 (List.length dots)

(* ---- the statements store -------------------------------------------- *)

let record ?(branch = "direct") ?(wall_s = 0.01) t fp =
  Obs.Stats.record t ~fingerprint:fp ~branch ~wall_s ()

let test_stats_deterministic_eviction () =
  let t = Obs.Stats.create ~capacity:2 () in
  record t ~wall_s:0.30 "q1";
  record t ~wall_s:0.10 "q2";
  record t ~wall_s:0.05 "q3" (* at capacity: q2 (least wall) evicts *);
  let fps =
    List.map (fun (e : Obs.Stats.entry) -> e.fingerprint) (Obs.Stats.entries t)
  in
  Alcotest.(check (list string)) "least-wall entry evicted" [ "q1"; "q3" ] fps;
  Alcotest.(check int) "evicted" 1 (Obs.Stats.evicted t);
  Alcotest.(check int) "recorded counts evictions" 3 (Obs.Stats.recorded t);
  (* totals stay honest: attributed excludes the evicted wall *)
  Alcotest.(check (float 1e-9)) "total keeps evicted time" 0.45
    (Obs.Stats.total_wall_s t);
  Alcotest.(check (float 1e-9)) "attributed excludes evicted time" 0.35
    (Obs.Stats.attributed_s t);
  (* ties break lexicographically: with q1=q3 on wall, a new entry
     evicts q1 (smaller fingerprint) — deterministic across replays *)
  let t2 = Obs.Stats.create ~capacity:2 () in
  record t2 ~wall_s:0.10 "b";
  record t2 ~wall_s:0.10 "a";
  record t2 ~wall_s:0.01 "c";
  let fps2 =
    List.map (fun (e : Obs.Stats.entry) -> e.fingerprint) (Obs.Stats.entries t2)
  in
  Alcotest.(check (list string)) "ties evict lexicographically-first" [ "b"; "c" ]
    fps2

let test_stats_aggregation_and_reset () =
  let t = Obs.Stats.create () in
  Obs.Stats.record t ~fingerprint:"q" ~branch:"sat_compilation" ~wall_s:0.2
    ~rows:3 ~cache:Obs.Stats.Miss
    ~counters:[ ("sat.decisions", 10) ]
    ();
  Obs.Stats.record t ~fingerprint:"q" ~branch:"sat_compilation" ~wall_s:0.1
    ~rows:3 ~cache:Obs.Stats.Hit ~error:true
    ~counters:[ ("sat.decisions", 5); ("join.hash", 2) ]
    ();
  (match Obs.Stats.entries t with
  | [ e ] ->
      Alcotest.(check int) "calls" 2 e.calls;
      Alcotest.(check int) "errors" 1 e.errors;
      Alcotest.(check int) "rows" 6 e.rows;
      Alcotest.(check int) "hits" 1 e.cache_hits;
      Alcotest.(check int) "misses" 1 e.cache_misses;
      Alcotest.(check (float 1e-9)) "wall" 0.3 e.wall_s;
      Alcotest.(check (float 1e-9)) "max" 0.2 e.max_s;
      Alcotest.(check bool) "counters merged" true
        (e.counters = [ ("join.hash", 2); ("sat.decisions", 15) ])
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es));
  Alcotest.(check bool) "exposition lines parse" true
    (List.for_all
       (fun l -> String.length l > 0)
       (Obs.Stats.prometheus_lines t));
  Obs.Stats.reset t;
  Alcotest.(check int) "reset empties" 0 (Obs.Stats.length t);
  Alcotest.(check (float 0.0)) "reset restarts totals" 0.0
    (Obs.Stats.total_wall_s t)

let span ~id ~parent ~name ~t0 ~t1 =
  { Obs.Trace.id; parent; name; attrs = []; t0; t1 }

let test_phase_attribution_partitions () =
  (* request(1.0s) > rewrite.key(0.4) > sat.dpll(0.1); the partition:
     other = 1.0-0.4 = 0.6, rewrite = 0.4-0.1 = 0.3, sat = 0.1.
     An unclassified child inherits its ancestor's phase. *)
  let spans =
    [
      span ~id:1 ~parent:0 ~name:"request" ~t0:0.0 ~t1:1.0;
      span ~id:2 ~parent:1 ~name:"rewrite.key" ~t0:0.1 ~t1:0.5;
      span ~id:3 ~parent:2 ~name:"sat.dpll" ~t0:0.2 ~t1:0.3;
    ]
  in
  let phases = Obs.Stats.phases_of_spans spans in
  let get p = List.assoc_opt p phases in
  Alcotest.(check (option (float 1e-9))) "other" (Some 0.6) (get "other");
  Alcotest.(check (option (float 1e-9))) "rewrite" (Some 0.3) (get "rewrite");
  Alcotest.(check (option (float 1e-9))) "sat" (Some 0.1) (get "sat");
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 phases in
  Alcotest.(check (float 1e-9)) "exact partition of the root" 1.0 total;
  (* nested unclassified span: all self time flows to the ancestor *)
  let nested =
    [
      span ~id:1 ~parent:0 ~name:"cavsat.compile" ~t0:0.0 ~t1:0.8;
      span ~id:2 ~parent:1 ~name:"helper.step" ~t0:0.0 ~t1:0.5;
    ]
  in
  Alcotest.(check (option (float 1e-9)))
    "unclassified child inherits sat" (Some 0.8)
    (List.assoc_opt "sat" (Obs.Stats.phases_of_spans nested));
  Alcotest.(check (list (pair string (float 0.0)))) "empty tree" []
    (Obs.Stats.phases_of_spans [])

let test_phase_of_span_names () =
  let check name expect =
    Alcotest.(check (option string)) name expect (Obs.Stats.phase_of_span name)
  in
  check "engine.classify" (Some "classify");
  check "rewrite.residue" (Some "rewrite");
  check "conflict_graph.build" (Some "conflict_graph");
  check "sat.dpll" (Some "sat");
  check "cavsat.compile" (Some "sat");
  check "repairs.enumerate" (Some "enumeration");
  check "asp.ground" (Some "asp");
  Alcotest.(check (option string)) "request is unclassified" None
    (Obs.Stats.phase_of_span "request")

(* The attribution pass against its definition, span by span: a span's
   parent is the span with its parent id (if that one was kept), its
   phase is its own or else its parent's, and its self time is its
   duration less its kept children's. *)
let naive_phases spans =
  let find id = List.find_opt (fun (s : Obs.Trace.span) -> s.id = id) spans in
  let rec phase (s : Obs.Trace.span) =
    match Obs.Stats.phase_of_span s.name with
    | Some p -> p
    | None -> ( match find s.parent with Some p -> phase p | None -> "other")
  in
  let self (s : Obs.Trace.span) =
    List.fold_left
      (fun acc (c : Obs.Trace.span) ->
        if c.parent = s.id then acc -. Obs.Trace.duration c else acc)
      (Obs.Trace.duration s) spans
  in
  List.fold_left
    (fun acc s ->
      let v = self s in
      if v <= 0.0 then acc
      else
        let p = phase s in
        (p, v +. Option.value ~default:0.0 (List.assoc_opt p acc))
        :: List.remove_assoc p acc)
    [] spans
  |> List.sort compare

(* Start-ordered span trees of 1-40 spans: each span opens under the
   previous one or one of its ancestors (a preorder walk), then some
   are dropped so their children become orphans.  Durations are
   multiples of 1/8 s, so sums are exact in either summation order;
   some are zero and some spans never finished. *)
let gen_span_tree =
  let names =
    [ "request"; "helper"; "engine.certain_answers"; "engine.classify";
      "rewrite.key"; "conflict_graph.build"; "sat.dpll"; "cavsat.certain_answers";
      "repairs.enumerate"; "asp.ground" ]
  in
  QCheck2.Gen.(
    int_range 1 40 >>= fun n ->
    let eighths =
      frequency
        [ (1, return None); (1, return (Some 0)); (6, map Option.some (int_range 1 40)) ]
    in
    list_repeat n
      (quad (int_range 0 1000) (oneofl names) eighths (float_bound_inclusive 1.0))
    >|= fun draws ->
    (* [path] is the ancestor chain of the last span, innermost first;
       the new span's parent is its [pick]-th entry, or the root. *)
    let _, spans =
      List.fold_left
        (fun (path, acc) (pick, name, dur, drop) ->
          let id = List.length acc + 1 in
          let k = pick mod (List.length path + 1) in
          let path = List.filteri (fun i _ -> i >= k) path in
          let parent = match path with p :: _ -> p | [] -> 0 in
          let t0 = float_of_int id in
          let t1 =
            match dur with
            | None -> neg_infinity
            | Some d -> t0 +. (float_of_int d /. 8.0)
          in
          let span = { Obs.Trace.id; parent; name; attrs = []; t0; t1 } in
          (id :: path, (drop < 0.25, span) :: acc))
        ([], []) draws
    in
    List.rev spans |> List.filter_map (fun (drop, s) -> if drop then None else Some s))

let prop_phases_match_naive =
  QCheck2.Test.make ~count:500 ~name:"phases_of_spans = naive attribution"
    ~print:(fun spans ->
      String.concat "; "
        (List.map
           (fun (s : Obs.Trace.span) ->
             Printf.sprintf "%d<%d %s %g..%g" s.id s.parent s.name s.t0 s.t1)
           spans))
    gen_span_tree
    (fun spans -> Obs.Stats.phases_of_spans spans = naive_phases spans)

(* One vocabulary: every phase a request reports while it runs is the
   name of a span it left, and the cost centers read those names. *)
let test_progress_phases_are_span_names () =
  let module V = Relational.Value in
  let schema = Relational.Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]) ] in
  let keys = [ Constraints.Ic.key ~rel:"R" [ 0 ]; Constraints.Ic.key ~rel:"S" [ 0 ] ] in
  let db =
    Relational.Instance.of_rows schema
      [
        ("R", [ [ V.int 1; V.int 1 ]; [ V.int 1; V.int 2 ]; [ V.int 2; V.int 1 ] ]);
        ("S", [ [ V.int 3; V.int 1 ]; [ V.int 3; V.int 2 ] ]);
      ]
  in
  let eng = Cqa.Engine.create ~schema ~ics:keys db in
  let x = T.var "x" and y = T.var "y" and z = T.var "z" in
  let path = Cq.make [ x ] [ A.make "R" [ x; y ]; A.make "S" [ z; y ] ] in
  let proj = Cq.make [ x ] [ A.make "R" [ x; y ] ] in
  let phases_of method_ q =
    let c = Obs.Progress.create ~ring:1024 ~label:"QUERY" ~id:1 () in
    let _, spans =
      Obs.Trace.collect (fun () ->
          Obs.Progress.run c (fun () -> Cqa.Engine.consistent_answers ~method_ eng q))
    in
    let names = List.map (fun (s : Obs.Trace.span) -> s.name) spans in
    let phases =
      List.sort_uniq compare
        (List.filter_map
           (fun (s : Obs.Progress.snapshot) ->
             if s.s_phase = "start" then None else Some s.s_phase)
           (Obs.Progress.history c))
    in
    List.iter
      (fun p ->
        Alcotest.(check bool) (Printf.sprintf "phase %s is a span" p) true
          (List.mem p names))
      phases;
    phases
  in
  let costs center phases =
    List.exists (fun p -> Obs.Stats.phase_of_span p = Some center) phases
  in
  Alcotest.(check bool) "SAT phase costs sat" true (costs "sat" (phases_of `Sat path));
  Alcotest.(check (list string)) "key rewriting enters only the engine phase"
    [ "engine.certain_answers" ]
    (phases_of `Key_rewriting proj);
  Alcotest.(check bool) "enumeration phase costs enumeration" true
    (costs "enumeration" (phases_of `Repair_enumeration path))

(* ---- WORKLOAD protocol ----------------------------------------------- *)

let test_workload_parse () =
  let ok line expect =
    match P.parse line with
    | Ok (P.Workload got) ->
        Alcotest.(check bool) line true (got = expect)
    | Ok _ -> Alcotest.failf "%s parsed as another command" line
    | Error e -> Alcotest.failf "%s rejected: %s" line e
  in
  ok "WORKLOAD" `Summary;
  ok "workload top" (`Top 10);
  ok "WORKLOAD TOP 3" (`Top 3);
  ok "WORKLOAD BY branch" `By_branch;
  ok "WORKLOAD RESET" `Reset;
  let bad line =
    match P.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should not parse" line
  in
  bad "WORKLOAD TOP 0";
  bad "WORKLOAD TOP many";
  bad "WORKLOAD BY phase";
  bad "WORKLOAD nonsense"

(* ---- the serving surface --------------------------------------------- *)

let doc_lines =
  [
    "relation T(k, v)";
    "row T(1, 1)";
    "row T(1, 2)";
    "row T(2, 5)";
    "key T(k)";
    "query q(X) :- T(X, Y)";
  ]

(* A handler whose latency clock is a script: each dispatch pops two
   values (start, end).  Creation does not consume the script — uptime
   is measured on the real clock. *)
let scripted ~script ?stats ?sampler () =
  let q = ref script in
  let clock () =
    match !q with
    | v :: rest ->
        q := rest;
        v
    | [] -> 0.0
  in
  Server.Handler.create ?stats ?sampler ~clock ()

let load t =
  match Server.Handler.dispatch t ~payload:doc_lines (P.Load "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)

let query t =
  Server.Handler.dispatch t
    (P.Query { sid = "s1"; name = "q"; method_ = P.Auto; semantics = P.S;
               timeout_ms = None })

let test_workload_disabled_is_err () =
  let t = Server.Handler.create () in
  match Server.Handler.dispatch t (P.Workload `Summary) with
  | { P.status = `Err; head; _ } ->
      Alcotest.(check bool) "message names the flag" true
        (let re = Str.regexp_string "--workload" in
         try
           ignore (Str.search_forward re head 0);
           true
         with Not_found -> false)
  | _ -> Alcotest.fail "WORKLOAD without a store must ERR"

let test_workload_attribution_and_commands () =
  let stats = Obs.Stats.create ~capacity:64 () in
  let sampler = Obs.Sampler.create ~capacity:8 ~threshold_s:0.150 () in
  (* LOAD 0.2s, QUERY 0.05s, QUERY 0.01s, CHECK 0.001s *)
  let t =
    scripted
      ~script:[ 0.0; 0.2; 1.0; 1.05; 2.0; 2.01; 3.0; 3.001 ]
      ~stats ~sampler ()
  in
  load t;
  ignore (query t);
  ignore (query t);
  ignore (Server.Handler.dispatch t (P.Check "s1"));
  let expected = 0.2 +. 0.05 +. 0.01 +. 0.001 in
  Alcotest.(check int) "every request recorded" 4 (Obs.Stats.recorded stats);
  Alcotest.(check (float 1e-9)) "wall fully accounted" expected
    (Obs.Stats.total_wall_s stats);
  (* the acceptance bar: >= 95% of request wall time attributed *)
  Alcotest.(check bool) "at least 95% attributed" true
    (Obs.Stats.attributed_s stats >= 0.95 *. Obs.Stats.total_wall_s stats);
  (* both QUERYs fold into one fingerprint entry off the service branch *)
  (match
     List.find_opt
       (fun (e : Obs.Stats.entry) -> e.branch <> "service")
       (Obs.Stats.entries stats)
   with
  | Some e ->
      Alcotest.(check int) "query shape seen twice" 2 e.calls;
      Alcotest.(check bool) "semantics-qualified fingerprint" true
        (String.length e.fingerprint > 2 && String.sub e.fingerprint 0 2 = "s:")
  | None -> Alcotest.fail "expected a non-service entry for the query");
  (* only the 0.2s LOAD crossed the 150ms tail threshold *)
  Alcotest.(check (list string)) "tail keeps exactly the slow request"
    [ "LOAD" ]
    (List.map
       (fun (r : Obs.Sampler.record) -> r.command)
       (Obs.Sampler.retained sampler));
  (* WORKLOAD summary / top / by-branch read the same store *)
  (match Server.Handler.dispatch t (P.Workload `Summary) with
  | { P.status = `Ok; body; _ } ->
      Alcotest.(check bool) "summary reports recorded=4" true
        (List.mem "workload.recorded 4" body);
      Alcotest.(check bool) "summary reports the tail ring" true
        (List.exists
           (fun l -> l = "workload.tail_kept 1")
           body)
  | { P.head; _ } -> Alcotest.fail ("WORKLOAD failed: " ^ head));
  (match Server.Handler.dispatch t (P.Workload (`Top 3)) with
  | { P.status = `Ok; body; _ } ->
      Alcotest.(check bool) "top names the query shape" true
        (List.exists
           (fun l ->
             let re = Str.regexp_string "T(v0,v1)" in
             try
               ignore (Str.search_forward re l 0);
               true
             with Not_found -> false)
           body)
  | _ -> Alcotest.fail "WORKLOAD TOP failed");
  (match Server.Handler.dispatch t (P.Workload `By_branch) with
  | { P.status = `Ok; body; _ } ->
      Alcotest.(check bool) "a service cost center exists" true
        (List.exists
           (fun l ->
             let re = Str.regexp_string "branch service" in
             try
               ignore (Str.search_forward re l 0);
               true
             with Not_found -> false)
           body)
  | _ -> Alcotest.fail "WORKLOAD BY branch failed");
  (* STATS carries the -- workload section *)
  (match Server.Handler.dispatch t P.Stats with
  | { P.status = `Ok; body; _ } ->
      Alcotest.(check bool) "STATS has the workload section" true
        (List.mem "-- workload" body)
  | _ -> Alcotest.fail "STATS failed");
  (* RESET clears the store and the tail ring *)
  (match Server.Handler.dispatch t (P.Workload `Reset) with
  | { P.status = `Ok; _ } -> ()
  | _ -> Alcotest.fail "WORKLOAD RESET failed");
  (* the RESET request is itself offered post-reset; nothing retained
     survives and the counters restarted *)
  Alcotest.(check int) "reset clears the tail ring" 0 (Obs.Sampler.kept sampler);
  Alcotest.(check bool) "reset restarts the seen counter" true
    (Obs.Sampler.seen sampler <= 1);
  (* the store restarts; requests after the reset are recorded anew *)
  Alcotest.(check bool) "store restarted" true (Obs.Stats.recorded stats <= 1)

(* ---- wall-clock anchors ---------------------------------------------- *)

let json_field line key =
  let re = Str.regexp (Printf.sprintf {|"%s":\([^,}]*\)|} key) in
  try
    ignore (Str.search_forward re line 0);
    Some (Str.matched_group 1 line)
  with Not_found -> None

let test_anchor_carries_wall_ms () =
  let lines = ref [] in
  let mono = ref [ 0.0; 0.001 ] in
  let clock () =
    match !mono with
    | v :: rest ->
        mono := rest;
        v
    | [] -> 1.0
  in
  let wall () = 1754400000.123 in
  let sink = Obs.Events.make ~clock ~wall (fun l -> lines := l :: !lines) in
  Obs.Events.anchor ~label:"startup" sink;
  match !lines with
  | [ line ] ->
      Alcotest.(check (option string)) "ev" (Some "\"anchor\"")
        (json_field line "ev");
      Alcotest.(check (option string)) "label" (Some "\"startup\"")
        (json_field line "label");
      Alcotest.(check (option string)) "wall_ms is integer epoch ms"
        (Some "1754400000123") (json_field line "wall_ms")
  | _ -> Alcotest.fail "anchor must emit exactly one event"

(* ---- build info and uptime ------------------------------------------- *)

let test_metrics_build_info_and_uptime () =
  let t = Server.Handler.create ~version:"9.9.9" () in
  match Server.Handler.dispatch t P.Metrics with
  | { P.status = `Ok; body; _ } ->
      let has needle =
        List.exists
          (fun l ->
            let re = Str.regexp_string needle in
            try
              ignore (Str.search_forward re l 0);
              true
            with Not_found -> false)
          body
      in
      Alcotest.(check bool) "build info carries the version" true
        (has {|cqa_build_info{version="9.9.9",ocaml_version="|});
      Alcotest.(check bool) "build info is a gauge" true
        (has "# TYPE cqa_build_info gauge");
      Alcotest.(check bool) "uptime gauge present" true
        (has "cqa_server_uptime_seconds")
  | { P.head; _ } -> Alcotest.fail ("METRICS failed: " ^ head)

let test_metrics_workload_families () =
  let stats = Obs.Stats.create () in
  let t = scripted ~script:[ 0.0; 0.01 ] ~stats () in
  load t;
  match Server.Handler.dispatch t P.Metrics with
  | { P.status = `Ok; body; _ } ->
      Alcotest.(check bool) "labeled branch family present" true
        (List.exists
           (fun l ->
             let re = Str.regexp_string {|cqa_workload_branch_seconds_bucket{branch="service"|} in
             try
               ignore (Str.search_forward re l 0);
               true
             with Not_found -> false)
           body)
  | _ -> Alcotest.fail "METRICS failed"

(* A key rewriting that declines at run time is charged to the route
   that answered.  proj(x) :- R(x,y) under key R(a) plans as the key
   rewriting, but R holds a NULL, so SAT answers: the workload store
   files the query under sat_compilation, and EXPLAIN reports the
   executed route next to the planned one. *)
let test_declined_rewriting_charged_to_sat () =
  let stats = Obs.Stats.create () in
  let t = Server.Handler.create ~stats ~progress:true () in
  (match
     Server.Handler.dispatch t
       ~payload:
         [
           "relation R(a, b)"; "row R(null, null)"; "row R(1, 2)";
           "key R(a)"; "query proj(X) :- R(X, Y)";
         ]
       (P.Load "n1")
   with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  let run cmd =
    match Server.Handler.dispatch t cmd with
    | { P.status = `Ok; body; _ } -> body
    | { P.head; _ } -> Alcotest.fail head
  in
  (* The second QUERY is a cache hit: no engine runs, and it must still
     be charged to the route the first one ran. *)
  for _ = 1 to 2 do
    ignore
      (run
         (P.Query { sid = "n1"; name = "proj"; method_ = P.Auto;
                    semantics = P.S; timeout_ms = None }))
  done;
  Alcotest.(check (list (pair string int))) "miss and hit charged to SAT"
    [ ("sat_compilation", 2) ]
    (List.filter_map
       (fun (e : Obs.Stats.entry) ->
         if e.branch = "service" then None else Some (e.branch, e.calls))
       (Obs.Stats.entries stats));
  let body =
    run
      (P.Explain { sid = "n1"; name = "proj"; method_ = P.Auto; semantics = P.S;
                   timeout_ms = None })
  in
  Alcotest.(check bool) "planned route" true
    (List.mem "auto_route key_rewriting" body);
  Alcotest.(check bool) "executed route" true
    (List.mem "executed_route sat_compilation" body)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rename_invariant;
    QCheck_alcotest.to_alcotest prop_const_invariant;
    QCheck_alcotest.to_alcotest prop_shape_distinguished;
    Alcotest.test_case "fingerprint examples and union order" `Quick
      test_fingerprint_examples;
    Alcotest.test_case "sampler retains exactly slow and error traces"
      `Quick test_sampler_retains_exactly_slow_and_errors;
    Alcotest.test_case "sampler: error beats slow; 1-in-1 samples" `Quick
      test_sampler_error_beats_slow;
    Alcotest.test_case "sampler: deterministic 1-in-N grid" `Quick
      test_sampler_reservoir_grid;
    Alcotest.test_case "sampler: ring bound and clear" `Quick
      test_sampler_ring_bound;
    Alcotest.test_case "clamp is line-aware" `Quick
      test_clamp_splits_embedded_newlines;
    Alcotest.test_case "stats: deterministic eviction" `Quick
      test_stats_deterministic_eviction;
    Alcotest.test_case "stats: aggregation, exposition, reset" `Quick
      test_stats_aggregation_and_reset;
    Alcotest.test_case "phases partition the span tree exactly" `Quick
      test_phase_attribution_partitions;
    Alcotest.test_case "phase_of_span name mapping" `Quick
      test_phase_of_span_names;
    QCheck_alcotest.to_alcotest prop_phases_match_naive;
    Alcotest.test_case "progress phases are span names" `Quick
      test_progress_phases_are_span_names;
    Alcotest.test_case "declined rewriting charged to SAT" `Quick
      test_declined_rewriting_charged_to_sat;
    Alcotest.test_case "WORKLOAD parses and rejects" `Quick test_workload_parse;
    Alcotest.test_case "WORKLOAD without a store is ERR" `Quick
      test_workload_disabled_is_err;
    Alcotest.test_case "workload attribution, commands, reset" `Quick
      test_workload_attribution_and_commands;
    Alcotest.test_case "event anchors carry epoch wall_ms" `Quick
      test_anchor_carries_wall_ms;
    Alcotest.test_case "METRICS exposes build info and uptime" `Quick
      test_metrics_build_info_and_uptime;
    Alcotest.test_case "METRICS exposes workload families" `Quick
      test_metrics_workload_families;
  ]
