(* B1..B6: scaling benchmarks for the survey's qualitative claims.  Each
   prints one table; Bechamel measures the repeatable cases and one-shot
   wall clocks cover the exponential blowups. *)

module Instance = Relational.Instance
module Value = Relational.Value
module Gen = Workload.Gen

let header id title claim =
  Printf.printf "== %s: %s ==\n" id title;
  Printf.printf "  claim: %s\n" claim

(* B1: Section 3.1 — instances with exponentially many repairs; repair
   enumeration blows up while a rewriting evaluation stays flat. *)
let b1 ~quick () =
  header "B1" "exponentially many repairs"
    "#S-repairs doubles per conflict pair; enumeration time follows, \
     FO-rewriting evaluation does not";
  let sizes = if quick then [ 2; 4; 6; 8 ] else [ 2; 4; 6; 8; 10; 12 ] in
  Printf.printf "  %6s %12s %14s %14s %14s %s\n" "pairs" "#S-repairs"
    "enum-time" "enum-j4" "rewrite-time" "par=seq";
  List.iter
    (fun pairs ->
      let db, key = Gen.key_conflict_chain ~seed:11 ~pairs () in
      let schema = Instance.schema db in
      let repairs, enum_ns =
        Bech_harness.best_of 3 (fun () ->
            Repairs.S_repair.enumerate db schema [ key ])
      in
      (* Same enumeration with four domains: must be byte-identical.
         Best-of-3 because domain spawn-time jitter at tiny sizes would
         otherwise dominate the measurement (and flap the bench gate). *)
      let repairs4, enum4_ns =
        Bech_harness.best_of 3 (fun () ->
            Par.set_default_jobs 4;
            Fun.protect
              ~finally:(fun () -> Par.set_default_jobs 1)
              (fun () -> Repairs.S_repair.enumerate db schema [ key ]))
      in
      let par_equal =
        List.length repairs = List.length repairs4
        && List.for_all2 Repairs.Repair.equal repairs repairs4
      in
      let q = Gen.employees_query () in
      let keys = [ ("T", [ 0 ]) ] in
      let _, rw_ns =
        Bech_harness.once (fun () ->
            Rewriting.Key_rewrite.consistent_answers q ~keys db)
      in
      Printf.printf "  %6d %12d %14s %14s %14s %b\n" pairs
        (List.length repairs) (Bech_harness.pp_ns enum_ns)
        (Bech_harness.pp_ns enum4_ns) (Bech_harness.pp_ns rw_ns) par_equal;
      Bench_json.record ~bench:"b1"
        [
          ("pairs", Bench_json.int pairs);
          ("s_repairs", Bench_json.int (List.length repairs));
          ("enum_ns", Bench_json.num enum_ns);
          ("enum_jobs4_ns", Bench_json.num enum4_ns);
          ("par_equal", Bench_json.str (string_of_bool par_equal));
          ("rewrite_ns", Bench_json.num rw_ns);
        ])
    sizes;
  print_newline ()

(* B2: Section 3.2 — CQA latency by method as the database grows. *)
let b2 ~quick () =
  header "B2" "CQA latency: rewriting vs repair enumeration vs ASP"
    "FO rewriting scales polynomially; repair enumeration and ASP pay for \
     materializing the repair space";
  let q = Gen.employees_query () in
  let keys = [ ("T", [ 0 ]) ] in
  let sizes = if quick then [ 40; 80 ] else [ 40; 80; 160 ] in
  List.iter
    (fun n ->
      let db, key =
        Gen.key_conflict_instance ~seed:5 ~n ~conflict_fraction:0.1 ()
      in
      let schema = Instance.schema db in
      let enum () =
        let eng = Cqa.Engine.create ~schema ~ics:[ key ] db in
        ignore (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
      in
      let fm () = ignore (Rewriting.Key_rewrite.consistent_answers q ~keys db) in
      let asp () =
        let eng = Cqa.Engine.create ~schema ~ics:[ key ] db in
        ignore (Cqa.Engine.consistent_answers ~method_:`Asp eng q)
      in
      let cases =
        [ ("fm-rewriting", fm); ("repair-enum", enum) ]
        @ if n <= 40 then [ ("asp", asp) ] else []
      in
      let results = Bech_harness.group (Printf.sprintf "b2/n=%d" n) cases in
      List.iter
        (fun (name, ns) ->
          Printf.printf "  n=%-5d %-14s %s\n" n name (Bech_harness.pp_ns ns);
          Bench_json.record ~bench:"b2"
            [
              ("n", Bench_json.int n);
              ("method", Bench_json.str name);
              ("ns", Bench_json.num ns);
            ])
        results;
      (* No silent caps: above n=40 the ASP repair space makes grounding
         explode, so instead of a skipped row the case runs under a real
         deadline and is cancelled cooperatively — the recorded row
         carries the final progress snapshot (phase reached, candidates
         processed), not a bare "timeout" string. *)
      if n > 40 then begin
        let budget_s = 0.25 in
        let ctx =
          Obs.Progress.create ~deadline_s:budget_s ~label:"b2/asp" ~id:n ()
        in
        match Obs.Progress.run ctx (fun () -> Bech_harness.once asp) with
        | (), ns ->
            Printf.printf "  n=%-5d %-14s %s\n" n "asp" (Bech_harness.pp_ns ns);
            Bench_json.record ~bench:"b2"
              [
                ("n", Bench_json.int n);
                ("method", Bench_json.str "asp");
                ("ns", Bench_json.num ns);
              ]
        | exception Obs.Progress.Deadline_exceeded ->
            Printf.printf
              "  n=%-5d %-14s timed out (budget %.0f ms, phase %s, %d \
               candidates)\n"
              n "asp" (budget_s *. 1e3)
              (Obs.Progress.phase_of ctx)
              (Obs.Progress.work ctx);
            Bench_json.record ~bench:"b2"
              [
                ("n", Bench_json.int n);
                ("method", Bench_json.str "asp");
                ("timed_out", Bench_json.str "true");
                ("budget_ms", Bench_json.num (budget_s *. 1e3));
                ("phase", Bench_json.str (Obs.Progress.phase_of ctx));
                ("candidates", Bench_json.int (Obs.Progress.work ctx));
              ]
      end)
    sizes;
  (* Forced-timeout enumeration with the worker pool armed.  The instance
     is shaped so the deadline must blow inside Par.map chunks: only 10
     conflict pairs (the sequential hitting-set cross product — 2^10
     combinations — finishes in well under the budget) but 4000 rows, so
     materializing and querying the 1024 repairs dominates and cannot
     finish within 25 ms.  The cancellation then surfaces as
     par.cancelled — CI asserts both fields of this row. *)
  let db, key =
    Gen.key_conflict_instance ~seed:11 ~n:4000 ~conflict_fraction:0.005 ()
  in
  let schema = Instance.schema db in
  let eng = Cqa.Engine.create ~schema ~ics:[ key ] db in
  let budget_s = 0.025 in
  let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
  let ctx =
    Obs.Progress.create ~deadline_s:budget_s ~label:"b2/enum-deadline" ~id:0 ()
  in
  Par.set_default_jobs 4;
  let timed_out =
    Fun.protect
      ~finally:(fun () -> Par.set_default_jobs 1)
      (fun () ->
        match
          Obs.Progress.run ctx (fun () ->
              Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
        with
        | _ -> false
        | exception Obs.Progress.Deadline_exceeded -> true)
  in
  let delta =
    Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
  in
  let par_cancelled =
    Option.value ~default:0 (List.assoc_opt "par.cancelled" delta)
  in
  Printf.printf
    "  enum-deadline pairs=10 jobs=4 timed_out=%b phase=%s candidates=%d \
     par_cancelled=%d\n"
    timed_out
    (Obs.Progress.phase_of ctx)
    (Obs.Progress.work ctx) par_cancelled;
  Bench_json.record ~bench:"b2"
    [
      ("method", Bench_json.str "enum-deadline");
      ("pairs", Bench_json.int 10);
      ("jobs", Bench_json.int 4);
      ("budget_ms", Bench_json.num (budget_s *. 1e3));
      ("timed_out", Bench_json.str (string_of_bool timed_out));
      ("phase", Bench_json.str (Obs.Progress.phase_of ctx));
      ("candidates", Bench_json.int (Obs.Progress.work ctx));
      ("par_cancelled", Bench_json.int par_cancelled);
    ];
  print_newline ()

(* B3: Section 4.1 — C-repair problems are harder than S-repair ones. *)
let b3 ~quick () =
  header "B3" "C-repairs vs S-repairs"
    "finding one S-repair (greedy maximal independent set) stays cheap; \
     minimum-cardinality repair (branch-and-bound hitting set) grows with \
     the conflict count";
  let sizes = if quick then [ 30; 60 ] else [ 30; 60; 90 ] in
  List.iter
    (fun n ->
      let db, kappa = Gen.denial_instance ~seed:7 ~n ~conflict_fraction:0.4 () in
      let schema = Instance.schema db in
      let g = Constraints.Conflict_graph.build db schema [ kappa ] in
      let results =
        Bech_harness.group
          (Printf.sprintf "b3/n=%d" n)
          [
            ( "one-s-repair",
              fun () -> ignore (Repairs.S_repair.one db schema [ kappa ]) );
            ( "c-repair-min",
              fun () -> ignore (Repairs.C_repair.one db schema [ kappa ]) );
          ]
      in
      List.iter
        (fun (name, ns) ->
          Printf.printf "  n=%-5d edges=%-4d %-14s %s\n" n
            (List.length g.Constraints.Conflict_graph.edges)
            name (Bech_harness.pp_ns ns);
          Bench_json.record ~bench:"b3"
            [
              ("n", Bench_json.int n);
              ("edges", Bench_json.int (List.length g.Constraints.Conflict_graph.edges));
              ("case", Bench_json.str name);
              ("ns", Bench_json.num ns);
            ])
        results)
    sizes;
  print_newline ()

(* B4: Section 3.3 — repair programs have exactly the required power:
   ASP cautious answers equal repair-enumeration answers. *)
let b4 ~quick () =
  header "B4" "ASP CQA = repair-enumeration CQA (differential)"
    "stable models of the repair program are the S-repairs, so cautious \
     answers agree with enumeration on every instance";
  let trials = if quick then 10 else 30 in
  let q = Gen.employees_query () in
  let agree = ref 0 in
  let asp_total = ref 0.0 and enum_total = ref 0.0 in
  for seed = 1 to trials do
    let db, key =
      Gen.key_conflict_instance ~seed ~n:24 ~conflict_fraction:0.25 ()
    in
    let schema = Instance.schema db in
    let eng = Cqa.Engine.create ~schema ~ics:[ key ] db in
    let a, t1 =
      Bech_harness.once (fun () -> Cqa.Engine.consistent_answers ~method_:`Asp eng q)
    in
    let b, t2 =
      Bech_harness.once (fun () ->
          Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
    in
    if a = b then incr agree;
    asp_total := !asp_total +. t1;
    enum_total := !enum_total +. t2
  done;
  Printf.printf "  agreement: %d/%d instances\n" !agree trials;
  Printf.printf "  mean asp:  %s\n"
    (Bech_harness.pp_ns (!asp_total /. float_of_int trials));
  Printf.printf "  mean enum: %s\n\n"
    (Bech_harness.pp_ns (!enum_total /. float_of_int trials));
  Bench_json.record ~bench:"b4"
    [
      ("agree", Bench_json.int !agree);
      ("trials", Bench_json.int trials);
      ("mean_asp_ns", Bench_json.num (!asp_total /. float_of_int trials));
      ("mean_enum_ns", Bench_json.num (!enum_total /. float_of_int trials));
    ]

(* B5: Section 7 — responsibility via C-repairs vs the ASP route. *)
let b5 ~quick () =
  header "B5" "responsibility: repair connection vs ASP"
    "both compute the same responsibilities; the direct hypergraph route is \
     faster than stable-model enumeration";
  let trials = if quick then 6 else 15 in
  let agree = ref 0 in
  let direct_total = ref 0.0 and asp_total = ref 0.0 in
  let q = Workload.Paper.Denial.q in
  for seed = 1 to trials do
    let db, _ = Gen.denial_instance ~seed ~n:12 ~conflict_fraction:0.5 () in
    let schema = Instance.schema db in
    if Logic.Cq.holds q db then begin
      let direct, t1 =
        Bech_harness.once (fun () ->
            Causality.Cause.actual_causes db schema q
            |> List.map (fun (c : Causality.Cause.t) -> (c.tid, c.responsibility)))
      in
      let asp, t2 =
        Bech_harness.once (fun () ->
            Repair_programs.Cause_rules.responsibilities db schema q)
      in
      if direct = asp then incr agree;
      direct_total := !direct_total +. t1;
      asp_total := !asp_total +. t2
    end
    else incr agree
  done;
  Printf.printf "  agreement: %d/%d instances\n" !agree trials;
  Printf.printf "  mean direct: %s\n"
    (Bech_harness.pp_ns (!direct_total /. float_of_int trials));
  Printf.printf "  mean asp:    %s\n\n"
    (Bech_harness.pp_ns (!asp_total /. float_of_int trials));
  Bench_json.record ~bench:"b5"
    [
      ("agree", Bench_json.int !agree);
      ("trials", Bench_json.int trials);
      ("mean_direct_ns", Bench_json.num (!direct_total /. float_of_int trials));
      ("mean_asp_ns", Bench_json.num (!asp_total /. float_of_int trials));
    ]

(* B6: Section 8 / [16,17] — inconsistency degree tracks the planted
   violation rate. *)
let b6 ~quick () =
  header "B6" "inconsistency measures vs planted conflict rate"
    "repair-based degree grows monotonically with the planted rate";
  let n = if quick then 40 else 100 in
  Printf.printf "  %6s %10s %12s %12s\n" "rate" "drastic" "confl-ratio"
    "repair-based";
  List.iter
    (fun rate ->
      let db, key = Gen.key_conflict_instance ~seed:3 ~n ~conflict_fraction:rate () in
      let schema = Instance.schema db in
      let measure f = f db schema [ key ] in
      Printf.printf "  %6.2f %10.2f %12.3f %12.3f\n" rate
        (measure Measures.Degree.drastic)
        (measure Measures.Degree.conflicting_tuple_ratio)
        (measure Measures.Degree.repair_based);
      Bench_json.record ~bench:"b6"
        [
          ("rate", Bench_json.num rate);
          ("drastic", Bench_json.num (measure Measures.Degree.drastic));
          ( "conflicting_ratio",
            Bench_json.num (measure Measures.Degree.conflicting_tuple_ratio) );
          ("repair_based", Bench_json.num (measure Measures.Degree.repair_based));
        ])
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ];
  print_newline ()

(* B7: ConsEx's magic-set optimization — focused evaluation derives fewer
   facts and runs faster when the query is selective. *)
let b7 ~quick () =
  header "B7" "magic sets: focused vs full Datalog evaluation"
    "bottom-up evaluation restricted to the query's cone derives a fraction \
     of the facts (ConsEx [43] uses this on repair programs)";
  let open Logic in
  let x = Term.var "X" and y = Term.var "Y" and z = Term.var "Z" in
  let tc =
    Datalog.Program.make
      [
        Datalog.Rule.make (Atom.make "path" [ x; y ]) [ Atom.make "edge" [ x; y ] ];
        Datalog.Rule.make
          (Atom.make "path" [ x; z ])
          [ Atom.make "edge" [ x; y ]; Atom.make "path" [ y; z ] ];
      ]
  in
  let sizes = if quick then [ 20; 40 ] else [ 20; 40; 80 ] in
  Printf.printf "  %6s %12s %12s %14s %14s\n" "chains" "plain-facts"
    "magic-facts" "plain-time" "magic-time";
  List.iter
    (fun chains ->
      (* [chains] disjoint 6-node chains; the query asks about one chain. *)
      let edb =
        List.concat
          (List.init chains (fun c ->
               List.init 5 (fun i ->
                   Relational.Fact.make "edge"
                     [
                       Value.int ((c * 10) + i); Value.int ((c * 10) + i + 1);
                     ])))
      in
      let query = Atom.make "path" [ Term.int 0; Term.var "Z" ] in
      let plain_facts, magic_facts = Datalog.Magic.derived_count tc edb ~query in
      let _, plain_ns = Bech_harness.once (fun () -> Datalog.Eval.run tc edb) in
      let _, magic_ns = Bech_harness.once (fun () -> Datalog.Magic.answers tc edb ~query) in
      Printf.printf "  %6d %12d %12d %14s %14s\n" chains plain_facts
        magic_facts (Bech_harness.pp_ns plain_ns) (Bech_harness.pp_ns magic_ns);
      Bench_json.record ~bench:"b7"
        [
          ("chains", Bench_json.int chains);
          ("plain_facts", Bench_json.int plain_facts);
          ("magic_facts", Bench_json.int magic_facts);
          ("plain_ns", Bench_json.num plain_ns);
          ("magic_ns", Bench_json.num magic_ns);
        ])
    sizes;
  print_newline ()

(* B8: incremental conflict maintenance vs full rebuild per update. *)
let b8 ~quick () =
  header "B8" "incremental maintenance vs rebuild (updates, Sec 4.1)"
    "maintaining the conflict hypergraph across insertions beats rebuilding \
     it after every update";
  let sizes = if quick then [ 50; 100 ] else [ 50; 100; 200 ] in
  List.iter
    (fun n ->
      let db, key =
        Gen.key_conflict_instance ~seed:13 ~n ~conflict_fraction:0.2 ()
      in
      let schema = Instance.schema db in
      let facts = Instance.fact_list db in
      let _, inc_ns =
        Bech_harness.once (fun () ->
            List.fold_left
              (fun t f -> fst (Repairs.Incremental.insert t f))
              (Repairs.Incremental.create (Instance.create schema) schema [ key ])
              facts)
      in
      let _, rebuild_ns =
        Bech_harness.once (fun () ->
            ignore
              (List.fold_left
                 (fun acc f ->
                   let acc = Instance.add acc f in
                   ignore (Constraints.Conflict_graph.build acc schema [ key ]);
                   acc)
                 (Instance.create schema) facts))
      in
      Printf.printf "  n=%-5d incremental %14s   rebuild-per-update %14s\n" n
        (Bech_harness.pp_ns inc_ns) (Bech_harness.pp_ns rebuild_ns);
      Bench_json.record ~bench:"b8"
        [
          ("n", Bench_json.int n);
          ("incremental_ns", Bench_json.num inc_ns);
          ("rebuild_ns", Bench_json.num rebuild_ns);
        ])
    sizes;
  print_newline ()

(* B9: counting repairs — closed form vs hitting sets vs enumeration. *)
let b9 ~quick () =
  header "B9" "counting repairs (Sec 3.2, [90])"
    "the key-block closed form counts in linear time where enumeration is \
     exponential";
  let sizes = if quick then [ 6; 10 ] else [ 6; 10; 12 ] in
  Printf.printf "  %6s %12s %14s %14s\n" "pairs" "#repairs" "closed-form"
    "enumeration";
  List.iter
    (fun pairs ->
      let db, key = Gen.key_conflict_chain ~seed:29 ~pairs () in
      let schema = Instance.schema db in
      (* Best-of-3: the small sizes finish in well under a millisecond,
         where single-shot timings flap the bench gate. *)
      let count, cf_ns =
        Bech_harness.best_of 3 (fun () ->
            Repairs.Count.s_repairs db schema [ key ])
      in
      let _, enum_ns =
        Bech_harness.best_of 3 (fun () ->
            Repairs.S_repair.enumerate db schema [ key ])
      in
      Printf.printf "  %6d %12d %14s %14s\n" pairs count (Bech_harness.pp_ns cf_ns)
        (Bech_harness.pp_ns enum_ns);
      Bench_json.record ~bench:"b9"
        [
          ("pairs", Bench_json.int pairs);
          ("repairs", Bench_json.int count);
          ("closed_form_ns", Bench_json.num cf_ns);
          ("enum_ns", Bench_json.num enum_ns);
        ])
    sizes;
  print_newline ()

(* B10: approximation quality — how often the polynomial bounds close. *)
let b10 ~quick () =
  header "B10" "approximation of CQA (Sec 3.2, [65, 69-71])"
    "under/over bounds always bracket the consistent answers at a fraction \
     of the exact cost once the repair space is exponential; the interval \
     narrows (and eventually closes) with more samples";
  let trials = if quick then 10 else 25 in
  let q = Gen.full_tuple_query () in
  let closed = ref 0 and sound = ref 0 in
  let approx_total = ref 0.0 and exact_total = ref 0.0 in
  for seed = 1 to trials do
    (* Half the tuples conflict: the repair space has ~2^10 elements, so
       exact enumeration pays while the bounds stay polynomial. *)
    let db, key = Gen.key_conflict_instance ~seed ~n:44 ~conflict_fraction:0.5 () in
    let schema = Instance.schema db in
    let eng = Cqa.Engine.create ~schema ~ics:[ key ] db in
    let b, t1 = Bech_harness.once (fun () -> Cqa.Approx.bounds ~seed ~samples:4 eng q) in
    let exact, t2 =
      Bech_harness.once (fun () ->
          Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
    in
    if b.Cqa.Approx.exact then incr closed;
    let subset a bb = List.for_all (fun r -> List.mem r bb) a in
    if subset b.Cqa.Approx.under exact && subset exact b.Cqa.Approx.over then
      incr sound;
    approx_total := !approx_total +. t1;
    exact_total := !exact_total +. t2
  done;
  Printf.printf "  bounds sound:    %d/%d\n" !sound trials;
  Printf.printf "  interval closed: %d/%d\n" !closed trials;
  Printf.printf "  mean bounds time: %s\n" (Bech_harness.pp_ns (!approx_total /. float_of_int trials));
  Printf.printf "  mean exact time:  %s\n\n" (Bech_harness.pp_ns (!exact_total /. float_of_int trials));
  Bench_json.record ~bench:"b10"
    [
      ("sound", Bench_json.int !sound);
      ("closed", Bench_json.int !closed);
      ("trials", Bench_json.int trials);
      ("mean_bounds_ns", Bench_json.num (!approx_total /. float_of_int trials));
      ("mean_exact_ns", Bench_json.num (!exact_total /. float_of_int trials));
    ]

(* B11: inconsistency-tolerant ontology semantics — IAR is the tractable
   approximation of AR (Sec 8, [79, 29, 100]). *)
let b11 ~quick () =
  header "B11" "ontology semantics: IAR vs AR vs brave"
    "IAR answers from the intersection of repairs without enumerating them; \
     AR/brave pay for the repair space";
  let open Ontology in
  let sizes = if quick then [ 4; 6 ] else [ 4; 6; 8 ] in
  List.iter
    (fun conflicts ->
      (* [conflicts] individuals asserted both Student and Prof: the repair
         space has 2^conflicts elements. *)
      let abox =
        List.concat
          (List.init conflicts (fun i ->
               let who = Printf.sprintf "p%d" i in
               [ Concept_of ("Prof", who); Concept_of ("Student", who) ]))
        @ List.init 20 (fun i -> Concept_of ("Student", Printf.sprintf "s%d" i))
      in
      let kb =
        make
          ~tbox:
            [
              Subsumed (Atomic "Prof", Atomic "Faculty");
              Disjoint (Atomic "Student", Atomic "Faculty");
            ]
          ~abox
      in
      let q =
        Logic.Cq.make [ Logic.Term.var "x" ]
          [ Logic.Atom.make "Student" [ Logic.Term.var "x" ] ]
      in
      let time sem = snd (Bech_harness.once (fun () -> answers kb sem q)) in
      let iar_ns = time IAR and ar_ns = time AR and brave_ns = time Brave in
      Printf.printf "  conflicts=%-3d IAR %12s   AR %12s   brave %12s\n"
        conflicts
        (Bech_harness.pp_ns iar_ns)
        (Bech_harness.pp_ns ar_ns)
        (Bech_harness.pp_ns brave_ns);
      Bench_json.record ~bench:"b11"
        [
          ("conflicts", Bench_json.int conflicts);
          ("iar_ns", Bench_json.num iar_ns);
          ("ar_ns", Bench_json.num ar_ns);
          ("brave_ns", Bench_json.num brave_ns);
        ])
    sizes;
  print_newline ()

(* B12: data exchange — chase cost scales with the source, exchange-repair
   search with the number of target conflicts. *)
let b12 ~quick () =
  header "B12" "data exchange: chase and exchange-repairs"
    "chasing is linear in the tgd matches; repairing a failing exchange \
     searches source deletions smallest-first";
  let open Logic in
  let src_schema = Relational.Schema.of_list [ ("DeptMgr", [ "dept"; "mgr" ]) ] in
  let tgt_schema = Relational.Schema.of_list [ ("TDept", [ "dept"; "mgr" ]) ] in
  let d = Term.var "d" and m = Term.var "m" in
  let setting =
    {
      Exchange.source_schema = src_schema;
      target_schema = tgt_schema;
      st_tgds =
        [
          Exchange.st_tgd
            ~body:(Cq.make [ d; m ] [ Atom.make "DeptMgr" [ d; m ] ])
            ~head:[ Atom.make "TDept" [ d; m ] ];
        ];
      egds =
        [
          Exchange.egd
            ~body:
              [
                Atom.make "TDept" [ d; Term.var "m1" ];
                Atom.make "TDept" [ d; Term.var "m2" ];
              ]
            "m1" "m2";
        ];
      target_ics = [];
    }
  in
  let sizes = if quick then [ 50; 100 ] else [ 50; 100; 200 ] in
  List.iter
    (fun n ->
      (* Clean source of n departments plus 2 conflicting ones. *)
      let clean_rows =
        List.init n (fun i ->
            [
              Value.str (Printf.sprintf "d%d" i);
              Value.str (Printf.sprintf "m%d" i);
            ])
      in
      let clean = Instance.of_rows src_schema [ ("DeptMgr", clean_rows) ] in
      let dirty =
        Instance.of_rows src_schema
          [
            ( "DeptMgr",
              clean_rows
              @ [
                  [ Value.str "dx"; Value.str "a" ];
                  [ Value.str "dx"; Value.str "b" ];
                ] );
          ]
      in
      let _, chase_ns = Bech_harness.once (fun () -> Exchange.chase setting clean) in
      let repairs, repair_ns =
        Bech_harness.once (fun () -> Exchange.exchange_repairs ~max_deletions:1 setting dirty)
      in
      Printf.printf
        "  n=%-5d chase %12s   exchange-repairs (%d found) %12s\n" n
        (Bech_harness.pp_ns chase_ns) (List.length repairs) (Bech_harness.pp_ns repair_ns);
      Bench_json.record ~bench:"b12"
        [
          ("n", Bench_json.int n);
          ("chase_ns", Bench_json.num chase_ns);
          ("exchange_repairs", Bench_json.int (List.length repairs));
          ("repair_ns", Bench_json.num repair_ns);
        ])
    sizes;
  print_newline ()

(* B13: temporal CQA — per-snapshot independence keeps the cost local to
   the dirty snapshots (Sec 8, [50]). *)
let b13 ~quick () =
  header "B13" "temporal CQA: cost tracks dirty snapshots"
    "snapshots repair independently, so range queries cost the sum of \
     per-snapshot CQA, dominated by the inconsistent snapshots";
  let schema = Relational.Schema.of_list [ ("T", [ "k"; "v" ]) ] in
  let key = Constraints.Ic.key ~rel:"T" [ 0 ] in
  let months = if quick then 10 else 20 in
  let q = Gen.employees_query () in
  let db_with ~dirty_months =
    let facts =
      List.concat
        (List.init months (fun t ->
             let base =
               List.init 10 (fun i ->
                   ( t,
                     Relational.Fact.make "T"
                       [ Value.int i; Value.int (100 + i) ] ))
             in
             if t < dirty_months then
               (* four key conflicts: 16 repairs for this snapshot *)
               List.init 4 (fun i ->
                   (t, Relational.Fact.make "T" [ Value.int i; Value.int (999 + i) ]))
               @ base
             else base))
    in
    Temporal.of_facts schema [ key ] facts
  in
  let cases =
    List.map
      (fun dirty_months ->
        let db = db_with ~dirty_months in
        ( Printf.sprintf "dirty=%02d" dirty_months,
          fun () ->
            ignore (Temporal.consistent_always db ~from_:0 ~until:(months - 1) q) ))
      [ 0; months / 4; months / 2 ]
  in
  List.iter
    (fun (name, ns) ->
      Printf.printf "  months=%-3d %s  always-range %s\n" months name
        (Bech_harness.pp_ns ns);
      Bench_json.record ~bench:"b13"
        [
          ("months", Bench_json.int months);
          ("case", Bench_json.str name);
          ("ns", Bench_json.num ns);
        ])
    (Bech_harness.group "b13" cases);
  print_newline ()

(* B14: numerical repairs — the L1-optimal fix is linear in the relation
   size (Sec 4, [20, 62]). *)
let b14 ~quick () =
  header "B14" "numerical repair cost"
    "clamping plus one-pass sum adjustment computes the L1-minimal fix in \
     linear time";
  let sizes = if quick then [ 100; 1000 ] else [ 100; 1000; 10000 ] in
  List.iter
    (fun n ->
      let schema = Relational.Schema.of_list [ ("L", [ "e"; "amount" ]) ] in
      let db =
        Instance.of_rows schema
          [
            ( "L",
              List.init n (fun i ->
                  [ Value.int i; Value.Real (float_of_int (i mod 90)) ]) );
          ]
      in
      let constraints =
        [
          Numeric.Numeric_repair.Row_bounds
            { rel = "L"; pos = 1; lower = Some 0.0; upper = Some 80.0 };
          Numeric.Numeric_repair.Sum_eq
            { rel = "L"; pos = 1; total = float_of_int (40 * n) };
        ]
      in
      let r, ns =
        Bech_harness.once (fun () -> Numeric.Numeric_repair.repair db constraints)
      in
      Printf.printf "  n=%-6d changes=%-5d cost=%-10.1f %s\n" n
        (List.length r.Numeric.Numeric_repair.changes)
        r.Numeric.Numeric_repair.l1_cost (Bech_harness.pp_ns ns);
      Bench_json.record ~bench:"b14"
        [
          ("n", Bench_json.int n);
          ("changes", Bench_json.int (List.length r.Numeric.Numeric_repair.changes));
          ("l1_cost", Bench_json.num r.Numeric.Numeric_repair.l1_cost);
          ("ns", Bench_json.num ns);
        ])
    sizes;
  print_newline ()

(* B16: the cqa-analyze tentpole — tractability-driven method dispatch.
   The key-conflict-chain workload's certain-pairs query is proved
   FO-rewritable by the static classifier, so [`Auto] answers it through
   the Fuxman–Miller rewriting while forced enumeration walks all 2^pairs
   repairs.  Counter deltas keep the comparison honest: the auto phase
   must never touch the enumeration machinery (repairs.candidates and
   sat.hitting_set.nodes stay at zero), and must actually take the rewriting
   (rewrite.key_applicable increments). *)
let b16 ~quick () =
  header "B16" "auto dispatch vs forced enumeration (cqa-analyze)"
    "the static classifier proves the query FO-rewritable and dispatches \
     past the exponential repair enumeration";
  let sizes = if quick then [ 16; 20 ] else [ 16; 20; 24; 28 ] in
  let open Logic in
  let q =
    Cq.make ~name:"pairs"
      [ Term.var "k"; Term.var "v" ]
      [ Atom.make "T" [ Term.var "k"; Term.var "v" ] ]
  in
  Printf.printf "  %6s %10s %10s %14s %14s %8s\n" "n" "verdict" "#answers"
    "enum" "auto" "speedup";
  List.iter
    (fun n ->
      (* Half the keys get two claimants: 2^(n/2) S-repairs, while the
         other half survive as certain answers — so [enum = auto] below
         compares non-empty answer sets. *)
      let db, key =
        Gen.key_conflict_instance ~seed:11 ~n ~conflict_fraction:0.5 ()
      in
      let schema = Instance.schema db in
      let engine = Cqa.Engine.create ~schema ~ics:[ key ] db in
      let plan = Cqa.Engine.plan engine q in
      let enum, enum_ns =
        Bech_harness.once (fun () ->
            Cqa.Engine.consistent_answers ~method_:`Repair_enumeration engine q)
      in
      let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
      let auto, auto_ns =
        Bech_harness.once (fun () -> Cqa.Engine.consistent_answers engine q)
      in
      let delta = Obs.Registry.counter_delta ~since:before (Obs.Registry.current ()) in
      let d name = Option.value ~default:0 (List.assoc_opt name delta) in
      assert (enum = auto);
      assert (d "repairs.candidates" = 0);
      assert (d "sat.hitting_set.nodes" = 0);
      assert (d "rewrite.key_applicable" > 0);
      let speedup = enum_ns /. auto_ns in
      Printf.printf "  %6d %10s %10d %14s %14s %7.1fx\n" n
        (Analysis.Classify.verdict_label plan.classification.verdict)
        (List.length auto)
        (Bech_harness.pp_ns enum_ns)
        (Bech_harness.pp_ns auto_ns)
        speedup;
      Bench_json.record ~bench:"b16"
        [
          ("n", Bench_json.int n);
          ("verdict", Bench_json.str
             (Analysis.Classify.verdict_label plan.classification.verdict));
          ("route", Bench_json.str (Cqa.Engine.route_label plan.route));
          ("answers", Bench_json.int (List.length auto));
          ("enum_ns", Bench_json.num enum_ns);
          ("auto_ns", Bench_json.num auto_ns);
          ("speedup", Bench_json.num speedup);
        ])
    sizes;
  print_newline ()

(* B17: the cqa-sat tentpole — CAvSAT-style SAT compilation racing repair
   enumeration and ASP on the coNP-hard join q(x) :- R(x,y), S(z,y)
   (keys R[a], S[c]).  The generator plants gadgets whose certainty is
   known by construction, so correctness is asserted even at sizes where
   the 2^(#key groups) repair space makes enumeration infeasible (the
   cutoffs mirror b2's ASP cutoff and must stay visible in the output).
   Counter deltas prove the SAT phase never touches the enumeration
   machinery: repairs.enumerations, repairs.candidates and
   sat.hitting_set.nodes stay at zero while cavsat.sat_calls counts the
   incremental refutations; conflict_graph.cache_misses stays at zero
   too, since the theory is built from the conflict edges without a
   conflict graph.  The probes learn nothing (sat.dpll.learned during
   the SAT phase is zero), and cavsat.witness_units counts the
   witnesses that went to the solver as assumptions, not clauses.  Then
   add/delete pairs through [Engine.update], each write followed by a
   SAT read: the reads patch the theory, so the row's
   theory_builds_during_updates must be zero. *)
let b17 ~quick () =
  header "B17" "SAT compilation vs enumeration vs ASP (cqa-sat)"
    "the CAvSAT encoding answers the coNP-hard join at sizes where \
     materializing the exponential repair space is infeasible";
  let sizes = if quick then [ 24; 80 ] else [ 24; 48; 80; 120 ] in
  let enum_cutoff = 48 and asp_cutoff = 24 in
  let q = Gen.hard_join_query () in
  Printf.printf "  %6s %10s %8s %14s %14s %14s\n" "n" "#certain" "#sat"
    "sat" "enum" "asp";
  List.iter
    (fun n ->
      let db, ics, expected =
        Gen.hard_join_instance ~n ~conflict_fraction:0.5 ()
      in
      let engine = Cqa.Engine.create ~schema:Gen.hard_join_schema ~ics db in
      (* The free-variable join has an acyclic attack graph and is
         FO-rewritable; the Boolean variant is the strong attack 2-cycle
         that stays on the coNP-hard SAT route. *)
      let bool_hard = Logic.Cq.make ~name:"bhard" [] q.Logic.Cq.body in
      let plan = Cqa.Engine.plan engine bool_hard in
      assert (Cqa.Engine.route_label plan.route = "sat_compilation");
      let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
      let sat, sat_ns =
        Bech_harness.once (fun () ->
            Cqa.Engine.consistent_answers ~method_:`Sat engine q)
      in
      let delta =
        Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
      in
      let d name = Option.value ~default:0 (List.assoc_opt name delta) in
      assert (List.sort compare sat = expected);
      assert (d "repairs.enumerations" = 0);
      assert (d "repairs.candidates" = 0);
      assert (d "sat.hitting_set.nodes" = 0);
      assert (d "cavsat.sat_calls" > 0);
      assert (d "conflict_graph.cache_misses" = 0);
      assert (d "sat.dpll.learned" = 0);
      (* Update pairs through [Engine.update]: a second, witness-less
         claimant joins R key i (the answer x = i may drop), a SAT read,
         the claimant leaves, another read.  Each read patches the theory
         the previous one left, so none builds one; the answers must
         match the key rewriting on a fresh engine. *)
      let update_pairs = 4 in
      let builds_during_updates = ref 0 in
      let read eng =
        let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
        let got = Cqa.Engine.consistent_answers ~method_:`Sat eng q in
        let delta =
          Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
        in
        builds_during_updates :=
          !builds_during_updates
          + Option.value ~default:0 (List.assoc_opt "cavsat.theory_builds" delta);
        let fresh =
          Cqa.Engine.create ~schema:Gen.hard_join_schema ~ics
            eng.Cqa.Engine.instance
        in
        assert (
          List.sort compare got
          = List.sort compare (Cqa.Engine.consistent_answers fresh q))
      in
      ignore
        (List.fold_left
           (fun eng i ->
             let claimant =
               Relational.Fact.make "R" [ Value.int i; Value.int (2_000_000 + i) ]
             in
             let eng = Cqa.Engine.update eng `Add claimant in
             read eng;
             let eng = Cqa.Engine.update eng `Del claimant in
             read eng;
             eng)
           engine
           (List.init update_pairs Fun.id));
      assert (!builds_during_updates = 0);
      let enum_ns =
        if n > enum_cutoff then None
        else begin
          let enum, ns =
            Bech_harness.once (fun () ->
                Cqa.Engine.consistent_answers ~method_:`Repair_enumeration
                  engine q)
          in
          assert (List.sort compare enum = expected);
          Some ns
        end
      in
      let asp_ns =
        if n > asp_cutoff then None
        else begin
          let asp, ns =
            Bech_harness.once (fun () ->
                Cqa.Engine.consistent_answers ~method_:`Asp engine q)
          in
          assert (List.sort compare asp = expected);
          Some ns
        end
      in
      let cell = function
        | Some ns -> Bech_harness.pp_ns ns
        | None -> "skipped"
      in
      Printf.printf "  %6d %10d %8d %14s %14s %14s\n" n (List.length sat)
        (d "cavsat.sat_calls")
        (Bech_harness.pp_ns sat_ns) (cell enum_ns) (cell asp_ns);
      Bench_json.record ~bench:"b17"
        ([
           ("n", Bench_json.int n);
           ("route", Bench_json.str (Cqa.Engine.route_label plan.route));
           ("certain", Bench_json.int (List.length sat));
           ("sat_calls", Bench_json.int (d "cavsat.sat_calls"));
           ("repairs_enumerated_during_sat",
            Bench_json.int (d "repairs.enumerations"));
           ("conflict_graph_misses_during_sat",
            Bench_json.int (d "conflict_graph.cache_misses"));
           ("learned_during_sat", Bench_json.int (d "sat.dpll.learned"));
           ("witness_units", Bench_json.int (d "cavsat.witness_units"));
           ("update_pairs", Bench_json.int update_pairs);
           ("theory_builds_during_updates",
            Bench_json.int !builds_during_updates);
           ("sat_ns", Bench_json.num sat_ns);
         ]
        @ (match enum_ns with
          | Some ns -> [ ("enum_ns", Bench_json.num ns) ]
          | None -> [ ("enum_skipped", Bench_json.str "timeout") ])
        @
        match asp_ns with
        | Some ns -> [ ("asp_ns", Bench_json.num ns) ]
        | None -> [ ("asp_skipped", Bench_json.str "timeout") ]))
    sizes;
  print_newline ()

(* B18: the cqa-columnar tentpole — compiled columnar kernels vs the row
   interpreter on the FO-rewriting pipeline.  Both phases evaluate the
   same Fuxman–Miller rewritings ([Formula.answers] compiles them,
   [Formula.interpret] runs the interpreter); answers are asserted
   identical, and counter deltas prove which engine ran: the columnar
   phase must show scan.columnar and join.fused activity with scan.row
   at zero (the string-labelled column also feeds dict.entries — labels
   are salted per size so the delta is visible), while the row phase
   must show scan.row.  At n = 10^4 the compiled kernels must clear 5x. *)
let b18 ~quick () =
  header "B18" "columnar kernels vs row interpreter (cqa-columnar)"
    "fused columnar scans/joins answer the FO-rewriting pipeline with the \
     same tuples as the row interpreter at a fraction of the time";
  let sizes = if quick then [ 100; 1000 ] else [ 100; 1000; 10000 ] in
  let open Logic in
  let schema =
    Relational.Schema.of_list
      [ ("T", [ "k"; "v"; "lbl"; "p"; "q"; "r" ]); ("S", [ "v"; "w" ]) ]
  in
  let keys = [ ("T", [ 0 ]); ("S", [ 0 ]) ] in
  let instance n =
    (* ~20% of T keys and ~14% of S keys get a second claimant, so the
       rewriting's guards have real refutation work to do.  T is wide
       (arity 6) — realistic for the census/claims tables CQA papers
       benchmark on — which is where per-tuple Binding costs bite the
       row interpreter.  String columns are salted with [n] so every
       size interns fresh dictionary entries. *)
    let m = max 10 (n / 10) in
    let lbl i = Value.str (Printf.sprintf "u%d-%d" n (i mod 97)) in
    let rv i = Value.str (Printf.sprintf "r%d-%d" n (i mod 53)) in
    let trow i j =
      [ Value.int i; Value.int (j mod m); lbl j; Value.int (j mod 31);
        Value.int (j mod 13); rv j ]
    in
    let t_rows =
      List.concat_map
        (fun i ->
          if i mod 5 = 0 then [ trow i i; trow i (i + 1) ] else [ trow i i ])
        (List.init n Fun.id)
    in
    let s_rows =
      List.concat_map
        (fun j ->
          let base = [ Value.int j; Value.int (j mod 50) ] in
          if j mod 7 = 0 then
            [ base; [ Value.int j; Value.int ((j + 1) mod 50) ] ]
          else [ base ])
        (List.init m Fun.id)
    in
    Instance.of_rows schema [ ("T", t_rows); ("S", s_rows) ]
  in
  let x = Term.var "x" and y = Term.var "y" and l = Term.var "l"
  and p = Term.var "p" and qv = Term.var "qv" and r = Term.var "r"
  and w = Term.var "w" in
  let t_atom = Atom.make "T" [ x; y; l; p; qv; r ] in
  let queries =
    [
      ("proj", Cq.make ~name:"proj" [ x ] [ t_atom ]);
      ("full", Cq.make ~name:"full" [ x; y; l; p; qv; r ] [ t_atom ]);
      ( "chain",
        Cq.make ~name:"chain" [ x ] [ t_atom; Atom.make "S" [ y; w ] ] );
    ]
  in
  Printf.printf "  %6s %6s %10s %14s %14s %8s %8s %6s\n" "n" "query"
    "#answers" "row" "columnar" "speedup" "fused" "dict+";
  (* Timing comparison, not memory bench: give the major GC slack so
     slice work triggered by whatever earlier benches left live is not
     billed to either phase (restored below). *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.space_overhead = 500 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  List.iter
    (fun n ->
      let db = instance n in
      let speedups = ref [] in
      (* Earlier benches leave a large, fragmented major heap whose GC
         slices would be billed to whichever phase allocates more;
         compact so both phases start from the same heap. *)
      Gc.compact ();
      List.iter
        (fun (qname, q) ->
          let run () =
            Option.get (Rewriting.Key_rewrite.consistent_answers q ~keys db)
          in
          let interpret () =
            Formula.interpret db ~free:(Cq.head_vars q)
              (Option.get (Rewriting.Key_rewrite.rewrite q ~keys))
          in
          let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
          let col_answers, col_ns =
            Bech_harness.best_of 3 run
          in
          let delta =
            Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
          in
          let d name = Option.value ~default:0 (List.assoc_opt name delta) in
          assert (d "scan.columnar" > 0);
          (* [proj]'s guard has no conditions to refute, so its plan is a
             bare scan; the other rewritings must run fused join kernels. *)
          assert (qname = "proj" || d "join.fused" > 0);
          assert (d "scan.row" = 0);
          let row_ns =
            let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
            let row_answers, ns =
              Bech_harness.best_of 3 interpret
            in
            let delta =
              Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
            in
            assert (Option.value ~default:0 (List.assoc_opt "scan.row" delta) > 0);
            assert (row_answers = col_answers);
            ns
          in
          let speedup = row_ns /. col_ns in
          speedups := speedup :: !speedups;
          (* Every query must show a solid per-query win at 10^4; the 5x
             acceptance bar is enforced on the pipeline geomean below. *)
          assert (n < 10000 || speedup >= 3.);
          Printf.printf "  %6d %6s %10d %14s %14s %7.1fx %8d %6d\n" n qname
            (List.length col_answers)
            (Bech_harness.pp_ns row_ns)
            (Bech_harness.pp_ns col_ns) speedup (d "join.fused")
            (d "dict.entries");
          Bench_json.record ~bench:"b18"
            ([
               ("n", Bench_json.int n);
               ("query", Bench_json.str qname);
               ("answers", Bench_json.int (List.length col_answers));
               ("columnar_ns", Bench_json.num col_ns);
               ("scan_columnar", Bench_json.int (d "scan.columnar"));
               ("join_fused", Bench_json.int (d "join.fused"));
               ("dict_entries", Bench_json.int (d "dict.entries"));
               ("scan_row_during_columnar", Bench_json.int (d "scan.row"));
               ("row_ns", Bench_json.num row_ns);
               ("speedup", Bench_json.num speedup);
             ]))
        queries;
      let geo =
        exp
          (List.fold_left (fun a s -> a +. log s) 0. !speedups
          /. float_of_int (List.length !speedups))
      in
      Printf.printf "  %6d %6s %49s %7.1fx\n" n "geo" "" geo;
      Bench_json.record ~bench:"b18"
        [
          ("n", Bench_json.int n);
          ("query", Bench_json.str "geomean");
          ("speedup", Bench_json.num geo);
        ];
      (* The acceptance bar: at 10^4 tuples the compiled kernels must beat
         the row interpreter by 5x across the FO-rewriting pipeline. *)
      assert (n < 10000 || geo >= 5.))
    sizes;
  print_newline ()

(* B19: the acyclic attack-graph tier outside the Fuxman–Miller
   C-forest fragment — the elimination-order rewriting on the columnar
   executor vs repair enumeration vs forced SAT on the canonical query
   q(x) :- R(x,y), S(y,x).  Every 4th R key carries a second claimant
   whose partner does not point back, so the repair space is 2^(n/4):
   enumeration is measured while feasible and runs under a cooperative
   deadline at n = 80 (where 2^20 repairs make it blow), while the
   rewriting stays polynomial.  Counter deltas prove the rewriting never
   touches the repair enumerator nor the row interpreter, and that the
   rewriting's repeat runs reuse the join indexes the first run kept on
   the base views — CI asserts the recorded fields. *)
let b19 ~quick () =
  header "B19" "acyclic-tier CQA: key rewriting vs enumeration vs SAT"
    "the elimination-order rewriting answers the acyclic attack-graph \
     tier in PTIME on the columnar executor; repair enumeration pays \
     2^conflicts and times out at n=80; forced SAT stays exact but \
     solves per instance";
  let open Logic in
  let schema =
    Relational.Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "a" ]) ]
  in
  let ics =
    [ Constraints.Ic.key ~rel:"R" [ 0 ]; Constraints.Ic.key ~rel:"S" [ 0 ] ]
  in
  let x = Term.var "x" and y = Term.var "y" in
  let q =
    Cq.make ~name:"pair" [ x ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; x ] ]
  in
  let instance n =
    (* Key i points at partner n+i and S points back; conflicted keys
       (every 4th) get a second claimant whose partner assists the next
       key instead, so exactly the unconflicted keys are certain. *)
    let r_rows =
      List.concat_map
        (fun i ->
          let base = [ Value.int i; Value.int (n + i) ] in
          if i mod 4 = 0 then
            [ base; [ Value.int i; Value.int (n + ((i + 1) mod n)) ] ]
          else [ base ])
        (List.init n Fun.id)
    in
    let s_rows = List.init n (fun i -> [ Value.int (n + i); Value.int i ]) in
    Instance.of_rows schema [ ("R", r_rows); ("S", s_rows) ]
  in
  let expected n =
    List.filter_map
      (fun i -> if i mod 4 = 0 then None else Some [ Value.int i ])
      (List.init n Fun.id)
  in
  let sizes = if quick then [ 20; 80 ] else [ 20; 40; 80 ] in
  let enum_cutoff = 40 in
  Printf.printf "  %6s %10s %8s %14s %14s %14s\n" "n" "#certain" "scan_row"
    "rewriting" "enum" "sat";
  List.iter
    (fun n ->
      let db = instance n in
      let engine = Cqa.Engine.create ~schema ~ics db in
      let plan = Cqa.Engine.plan engine q in
      assert (Cqa.Engine.route_label plan.route = "key_rewriting");
      let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
      (* Join indexes built by each run: the first builds the base views'
         indexes, the repeats reuse them and build none (a guard's
         refuted rows are subtracted by row identity, with no index). *)
      let index_builds = ref [] in
      let rewritten, rewrite_ns =
        Bech_harness.best_of 3 (fun () ->
            let reg = Obs.Registry.current () in
            let b0 = Obs.Registry.counter_value reg "join.index_builds" in
            let r = Cqa.Engine.consistent_answers ~method_:`Key_rewriting engine q in
            index_builds :=
              (Obs.Registry.counter_value reg "join.index_builds" - b0)
              :: !index_builds;
            r)
      in
      let first_builds, repeat_builds =
        match List.rev !index_builds with
        | first :: repeats -> (first, repeats)
        | [] -> assert false
      in
      assert (List.for_all (fun b -> b < first_builds) repeat_builds);
      let delta =
        Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
      in
      let d name = Option.value ~default:0 (List.assoc_opt name delta) in
      assert (List.sort compare rewritten = expected n);
      assert (d "repairs.enumerations" = 0);
      assert (d "repairs.candidates" = 0);
      assert (d "scan.row" = 0);
      let sat, sat_ns =
        Bech_harness.once (fun () ->
            Cqa.Engine.consistent_answers ~method_:`Sat engine q)
      in
      assert (List.sort compare sat = expected n);
      let enum_cell =
        if n <= enum_cutoff then begin
          let enum, ns =
            Bech_harness.once (fun () ->
                Cqa.Engine.consistent_answers ~method_:`Repair_enumeration
                  engine q)
          in
          assert (List.sort compare enum = expected n);
          Bench_json.record ~bench:"b19"
            [
              ("n", Bench_json.int n);
              ("method", Bench_json.str "repair-enum");
              ("wall_ns", Bench_json.num ns);
            ];
          Bech_harness.pp_ns ns
        end
        else begin
          (* 2^(n/4) repairs: run under a real deadline and record the
             cancellation with its progress snapshot, not a skip.  How
             far it gets depends on wall time, so it counts into a
             registry of its own: the file's top-level counters, which
             the bench gate compares, see only deterministic work. *)
          let budget_s = 0.25 in
          let ctx =
            Obs.Progress.create ~deadline_s:budget_s ~label:"b19/enum" ~id:n ()
          in
          let global = Obs.Registry.current () in
          Obs.Registry.set_current (Obs.Registry.create ());
          let timed_out =
            Fun.protect
              ~finally:(fun () -> Obs.Registry.set_current global)
              (fun () ->
                match
                  Obs.Progress.run ctx (fun () ->
                      Cqa.Engine.consistent_answers
                        ~method_:`Repair_enumeration engine q)
                with
                | _ -> false
                | exception Obs.Progress.Deadline_exceeded -> true)
          in
          Bench_json.record ~bench:"b19"
            [
              ("n", Bench_json.int n);
              ("method", Bench_json.str "repair-enum");
              ("timed_out", Bench_json.str (string_of_bool timed_out));
              ("budget_ms", Bench_json.num (budget_s *. 1e3));
              ("phase", Bench_json.str (Obs.Progress.phase_of ctx));
            ];
          if timed_out then
            Printf.sprintf "timeout@%.0fms" (budget_s *. 1e3)
          else "under-budget"
        end
      in
      Printf.printf "  %6d %10d %8d %14s %14s %14s\n" n (List.length rewritten)
        (d "scan.row")
        (Bech_harness.pp_ns rewrite_ns) enum_cell (Bech_harness.pp_ns sat_ns);
      Bench_json.record ~bench:"b19"
        [
          ("n", Bench_json.int n);
          ("method", Bench_json.str "key_rewriting");
          ("route", Bench_json.str (Cqa.Engine.route_label plan.route));
          ("certain", Bench_json.int (List.length rewritten));
          ("wall_ns", Bench_json.num rewrite_ns);
          ("scan_row", Bench_json.int (d "scan.row"));
          ("repairs_enumerated", Bench_json.int (d "repairs.enumerations"));
          ("index_builds_first", Bench_json.int first_builds);
          ( "index_builds_repeats",
            "[" ^ String.concat ", " (List.map Bench_json.int repeat_builds) ^ "]" );
        ];
      Bench_json.record ~bench:"b19"
        [
          ("n", Bench_json.int n);
          ("method", Bench_json.str "sat");
          ("wall_ns", Bench_json.num sat_ns);
        ])
    sizes;
  print_newline ()

(* B21: a union of conjunctive queries on the SAT route.
   q(X) :- R(X,Y), S(Y,Z) ∪ q(X) :- S(X,Y) under keys R[a], S[c], two R
   facts per key.  Each disjunct alone is FO-rewritable, but the union's
   certain answers are not the union of theirs, so [method=auto] plans
   SAT compilation for it; repair enumeration pays 2^keys (2^16 at the
   smallest size, run under a deadline).  Certainty is known by
   construction: key i claims partners n+2i and n+2i+1; the first always
   has an S fact, the second only for even i, so the first disjunct
   certainly answers the even keys, and the second every S key (every
   4th key's first partner has two conflicting S facts, one of which
   every repair keeps).  The row asserts and records zero repair
   enumerations.  b21 counts into a registry of its own, so the file's
   top-level counters (which the bench gate compares) keep measuring the
   other benches; its row carries its own counter deltas. *)
let b21 ~quick () =
  header "B21" "union of CQs: SAT compilation vs enumeration"
    "a union's witnesses are its disjuncts' witnesses, so the CAvSAT \
     encoding answers it without materializing the 2^keys repairs";
  let open Logic in
  let schema =
    Relational.Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]) ]
  in
  let ics =
    [ Constraints.Ic.key ~rel:"R" [ 0 ]; Constraints.Ic.key ~rel:"S" [ 0 ] ]
  in
  let x = Term.var "X" and y = Term.var "Y" and z = Term.var "Z" in
  let u =
    Ucq.make ~name:"q"
      [
        Cq.make ~name:"q" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ];
        Cq.make ~name:"q" [ x ] [ Atom.make "S" [ x; y ] ];
      ]
  in
  let instance n =
    let r_rows =
      List.concat_map
        (fun i ->
          [
            [ Value.int i; Value.int (n + (2 * i)) ];
            [ Value.int i; Value.int (n + (2 * i) + 1) ];
          ])
        (List.init n Fun.id)
    in
    let s_rows =
      List.concat_map
        (fun i ->
          let first = Value.int (n + (2 * i)) in
          (if i mod 4 = 1 then [ [ first; Value.int 0 ]; [ first; Value.int 1 ] ]
           else [ [ first; Value.int 0 ] ])
          @
          if i mod 2 = 0 then [ [ Value.int (n + (2 * i) + 1); Value.int 0 ] ]
          else [])
        (List.init n Fun.id)
    in
    Instance.of_rows schema [ ("R", r_rows); ("S", s_rows) ]
  in
  let expected n =
    List.sort compare
      (List.concat_map
         (fun i ->
           let v k = [ Value.int k ] in
           if i mod 2 = 0 then [ v i; v (n + (2 * i)); v (n + (2 * i) + 1) ]
           else [ v (n + (2 * i)) ])
         (List.init n Fun.id))
  in
  let sizes = if quick then [ 16; 1024 ] else [ 16; 128; 1024; 2048 ] in
  Printf.printf "  %6s %10s %10s %8s %14s %14s\n" "keys" "#certain"
    "candidates" "#sat" "auto" "enum";
  let global = Obs.Registry.current () in
  Obs.Registry.set_current (Obs.Registry.create ());
  Fun.protect ~finally:(fun () -> Obs.Registry.set_current global) @@ fun () ->
  List.iter
    (fun n ->
      let engine = Cqa.Engine.create ~schema ~ics (instance n) in
      let plan = Cqa.Engine.plan_ucq engine u in
      assert (Cqa.Engine.route_label plan.route = "sat_compilation");
      let before = Obs.Registry.counter_snapshot (Obs.Registry.current ()) in
      let auto, auto_ns =
        Bech_harness.once (fun () -> Cqa.Engine.consistent_answers_ucq engine u)
      in
      let delta =
        Obs.Registry.counter_delta ~since:before (Obs.Registry.current ())
      in
      let d name = Option.value ~default:0 (List.assoc_opt name delta) in
      assert (List.sort compare auto = expected n);
      assert (d "repairs.enumerations" = 0);
      assert (d "repairs.candidates" = 0);
      assert (d "cavsat.candidates" > 0);
      (* 2^n repairs: enumeration runs under a real deadline at the
         smallest size only, and its cancellation is recorded. *)
      let enum_cell =
        if n > 16 then "skipped"
        else begin
          let budget_s = 0.25 in
          let ctx =
            Obs.Progress.create ~deadline_s:budget_s ~label:"b21/enum" ~id:n ()
          in
          let timed_out =
            match
              Obs.Progress.run ctx (fun () ->
                  Cqa.Engine.consistent_answers_ucq ~method_:`Repair_enumeration
                    engine u)
            with
            | enum ->
                assert (List.sort compare enum = expected n);
                false
            | exception Obs.Progress.Deadline_exceeded -> true
          in
          Bench_json.record ~bench:"b21"
            [
              ("n", Bench_json.int n);
              ("method", Bench_json.str "repair-enum");
              ("timed_out", Bench_json.str (string_of_bool timed_out));
              ("budget_ms", Bench_json.num (budget_s *. 1e3));
            ];
          if timed_out then Printf.sprintf "timeout@%.0fms" (budget_s *. 1e3)
          else "under-budget"
        end
      in
      Printf.printf "  %6d %10d %10d %8d %14s %14s\n" n (List.length auto)
        (d "cavsat.candidates") (d "cavsat.sat_calls")
        (Bech_harness.pp_ns auto_ns) enum_cell;
      Bench_json.record ~bench:"b21"
        [
          ("n", Bench_json.int n);
          ("method", Bench_json.str "auto");
          ("route", Bench_json.str (Cqa.Engine.route_label plan.route));
          ("certain", Bench_json.int (List.length auto));
          ("candidates", Bench_json.int (d "cavsat.candidates"));
          ("sat_calls", Bench_json.int (d "cavsat.sat_calls"));
          ("repairs_enumerated", Bench_json.int (d "repairs.enumerations"));
          ("wall_ns", Bench_json.num auto_ns);
        ])
    sizes;
  print_newline ()

let all =
  [
    ("b1", b1); ("b2", b2); ("b3", b3); ("b4", b4); ("b5", b5); ("b6", b6);
    ("b7", b7); ("b8", b8); ("b9", b9); ("b10", b10); ("b11", b11);
    ("b12", b12); ("b13", b13); ("b14", b14); ("b16", b16);
    ("b17", b17); ("b18", b18); ("b19", b19); ("b21", b21);
  ]

let run ~quick ids =
  let selected =
    match ids with
    | [] -> all
    | _ -> List.filter (fun (id, _) -> List.mem id ids) all
  in
  List.iter (fun (_, f) -> f ~quick ()) selected
