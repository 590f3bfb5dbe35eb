(* The cqa-analyze subsystem: safety lints over rules built as raw
   records (bypassing the safe constructors), stratification and
   dependency-graph structure, constraint-set analysis (weak acyclicity,
   IND cycles), the tractability classifier with its witnesses, the
   engine's auto dispatch, report determinism, and the server's ANALYZE
   command. *)

module Finding = Analysis.Finding
module Lint = Analysis.Lint
module Classify = Analysis.Classify
module Ic_analysis = Analysis.Ic_analysis
module Depgraph = Analysis.Depgraph
module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Ic = Constraints.Ic
module P = Server.Protocol
open Logic

let check = Alcotest.check
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"

let codes fs = List.map (fun (f : Finding.t) -> f.code) (Finding.sort fs)

let has_code c fs =
  List.exists (fun (f : Finding.t) -> String.equal f.code c) fs

(* ---- Rule-level safety lints ----------------------------------------- *)

let test_unsafe_datalog_rule () =
  (* Raw record: Rule.make would reject all three defects at once. *)
  let r : Datalog.Rule.t =
    {
      head = Atom.make "p" [ x; z ];
      body_pos = [ Atom.make "q" [ x ] ];
      body_neg = [ Atom.make "r" [ y ] ];
      comps = [ Cmp.make Cmp.Lt (Term.var "w") (Term.Const (Value.int 3)) ];
    }
  in
  let fs = Lint.datalog_rule ~subject:"rule#1" r in
  check (Alcotest.list Alcotest.string) "three safety errors"
    [
      "safety/ground-unsafe-comparison";
      "safety/unbound-head-var";
      "safety/unsafe-negation";
    ]
    (codes fs);
  check Alcotest.bool "all errors" true (Finding.has_errors fs);
  (* A safe rule lints clean. *)
  let ok = Datalog.Rule.make (Atom.make "p" [ x ]) [ Atom.make "q" [ x ] ] in
  check (Alcotest.list Alcotest.string) "safe rule clean" []
    (codes (Lint.datalog_rule ok))

let test_unsafe_asp_rule () =
  let r : Asp.Syntax.rule =
    {
      head = [ Atom.make "a" [ x ]; Atom.make "b" [ y ] ];
      pos = [ Atom.make "e" [ x ] ];
      neg = [];
      comps = [];
    }
  in
  let fs = Lint.asp_rule r in
  check (Alcotest.list Alcotest.string) "unbound disjunct variable"
    [ "safety/unbound-head-var" ] (codes fs)

(* ---- Program structure ------------------------------------------------ *)

let test_datalog_stratification () =
  let open Datalog in
  let p_of rules = { Program.rules } in
  (* win(x) :- move(x,y), not win(y): stratifiable (no recursion through
     itself here since win is in a cycle with itself via negation!).
     Actually win <-neg- win is exactly the classic unstratifiable case. *)
  let win =
    Rule.make
      ~neg:[ Atom.make "win" [ y ] ]
      (Atom.make "win" [ x ])
      [ Atom.make "move" [ x; y ] ]
  in
  let fs = Lint.datalog_program ~edb:[ "move" ] (p_of [ win ]) in
  check Alcotest.bool "negative cycle is an error" true
    (has_code "stratification/negative-cycle" fs);
  check Alcotest.bool "errors reported" true (Finding.has_errors fs);
  (* Stratified program: negation only against a lower stratum. *)
  let reach =
    Rule.make (Atom.make "reach" [ x; y ]) [ Atom.make "edge" [ x; y ] ]
  in
  let unreach =
    Rule.make
      ~neg:[ Atom.make "reach" [ x; y ] ]
      (Atom.make "unreach" [ x; y ])
      [ Atom.make "node" [ x ]; Atom.make "node" [ y ] ]
  in
  let fs = Lint.datalog_program ~edb:[ "edge"; "node" ] (p_of [ reach; unreach ]) in
  check Alcotest.bool "stratified program has no errors" false
    (Finding.has_errors fs)

let test_datalog_unused_and_undefined () =
  let open Datalog in
  let dead = Rule.make (Atom.make "dead" [ x ]) [ Atom.make "e" [ x ] ] in
  let user =
    Rule.make (Atom.make "out" [ x ]) [ Atom.make "ghost" [ x ] ]
  in
  let fs = Lint.datalog_program ~edb:[ "e" ] { Program.rules = [ dead; user ] } in
  check Alcotest.bool "unused predicate noted" true
    (has_code "structure/unused-predicate" fs);
  check Alcotest.bool "undefined predicate warned" true
    (has_code "structure/undefined-predicate" fs)

let test_depgraph_structure () =
  let open Datalog in
  let r1 = Rule.make (Atom.make "t" [ x; y ]) [ Atom.make "e" [ x; y ] ] in
  let r2 =
    Rule.make (Atom.make "t" [ x; z ])
      [ Atom.make "e" [ x; y ]; Atom.make "t" [ y; z ] ]
  in
  let g = Depgraph.of_datalog { Program.rules = [ r1; r2 ] } in
  check (Alcotest.list Alcotest.string) "predicates" [ "e"; "t" ]
    (Depgraph.predicates g);
  check (Alcotest.list Alcotest.string) "recursive" [ "t" ]
    (Depgraph.recursive_predicates g);
  check Alcotest.bool "no negative cycle" true
    (Depgraph.negative_cycle_witness g = None);
  (* Dependencies first in the condensation order. *)
  check (Alcotest.list (Alcotest.list Alcotest.string)) "sccs topological"
    [ [ "e" ]; [ "t" ] ] (Depgraph.sccs g)

(* ---- Constraint-set analysis ------------------------------------------ *)

let test_weak_acyclicity () =
  (* Example 2.1's IND is acyclic: the chase terminates. *)
  let supply = Paper_examples.Supply.schema in
  let ind_of = function Ic.Ind i -> Some i | _ -> None in
  let inds ics = List.filter_map ind_of ics in
  check Alcotest.bool "Supply IND weakly acyclic" true
    (Ic_analysis.weakly_acyclic supply (inds [ Paper_examples.Supply.ind ])
    = None);
  let fs = Ic_analysis.analyze supply [ Paper_examples.Supply.ind ] in
  check Alcotest.bool "positive chase finding" true
    (has_code "chase/weakly-acyclic" fs);
  (* R[b] <= R[a]: the chase keeps inventing fresh b-values forever —
     a special edge on a cycle. *)
  let schema = Schema.of_list [ ("R", [ "a"; "b" ]) ] in
  let looping = Ic.ind ~sub:("R", [ 1 ]) ~sup:("R", [ 0 ]) in
  check Alcotest.bool "self-feeding IND is not weakly acyclic" true
    (Ic_analysis.weakly_acyclic schema (inds [ looping ]) <> None);
  let fs = Ic_analysis.analyze schema [ looping ] in
  check Alcotest.bool "non-termination warned" true
    (has_code "chase/non-terminating" fs)

let test_ind_cycle_and_conformance () =
  let schema = Schema.of_list [ ("R", [ "a" ]); ("S", [ "a" ]) ] in
  let i1 = Ic.ind ~sub:("R", [ 0 ]) ~sup:("S", [ 0 ]) in
  let i2 = Ic.ind ~sub:("S", [ 0 ]) ~sup:("R", [ 0 ]) in
  let ind_of = function Ic.Ind i -> Some i | _ -> None in
  (match Ic_analysis.ind_cycle (List.filter_map ind_of [ i1; i2 ]) with
  | Some cycle -> check Alcotest.bool "cycle closes" true (List.length cycle >= 2)
  | None -> Alcotest.fail "R <-> S IND cycle not detected");
  let fs = Ic_analysis.analyze schema [ i1; i2 ] in
  check Alcotest.bool "cycle warned" true (has_code "ind/cycle" fs);
  (* Conformance: unknown relation and out-of-range position are errors. *)
  let fs = Ic_analysis.analyze schema [ Ic.key ~rel:"Nope" [ 0 ] ] in
  check Alcotest.bool "unknown relation" true
    (has_code "schema/unknown-relation" fs);
  let fs = Ic_analysis.analyze schema [ Ic.key ~rel:"R" [ 5 ] ] in
  check Alcotest.bool "position out of range" true
    (has_code "schema/position-out-of-range" fs);
  check Alcotest.bool "errors" true (Finding.has_errors fs)

(* ---- The paper's repair programs analyze clean ------------------------ *)

let test_paper_repair_programs_clean () =
  let program_findings schema ics =
    Lint.asp_program (Repair_programs.Compile.repair_program schema ics)
  in
  List.iter
    (fun (label, schema, ics) ->
      let fs = program_findings schema ics in
      check Alcotest.int (label ^ ": no errors") 0 (Finding.errors fs);
      check Alcotest.int (label ^ ": no warnings") 0 (Finding.warnings fs);
      (* The expected structure is still reported, as Info. *)
      check Alcotest.bool (label ^ ": unstratified noted") true
        (has_code "structure/unstratified" fs))
    [
      ( "Employee (Ex 3.3)",
        Paper_examples.Employee.schema,
        [ Paper_examples.Employee.key ] );
      ( "Denial kappa (Ex 3.5)",
        Paper_examples.Denial.schema,
        [ Paper_examples.Denial.kappa ] );
    ]

(* ---- The complexity classifier ---------------------------------------- *)

let emp_key = Paper_examples.Employee.key

let test_classifier_verdicts () =
  let classify ics q = (Classify.classify ics q : Classify.t) in
  (* Ex 3.3's queries: acyclic attack graphs, hence FO-rewritable. *)
  let names = Cq.make ~name:"names" [ x ] [ Atom.make "Employee" [ x; y ] ] in
  let c = classify [ emp_key ] names in
  check Alcotest.string "names verdict" "FO_rewritable"
    (Classify.verdict_label c.verdict);
  check Alcotest.string "names witness" "attack-graph/acyclic"
    (Classify.witness_code c.witness);
  (* The trichotomy's hard tier: the Boolean nonkey-nonkey join is the
     Koutris–Wijsen strong 2-cycle (Fuxman–Miller's coNP-hard example). *)
  let rs_keys = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ] in
  let bhard =
    Cq.make ~name:"bhard" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let c = classify rs_keys bhard in
  check Alcotest.string "boolean hard verdict" "coNP_hard"
    (Classify.verdict_label c.verdict);
  check Alcotest.string "boolean hard witness" "attack-graph/strong-cycle"
    (Classify.witness_code c.witness);
  (* The same body with x free is NOT hard: the free variable acts as a
     constant, S's closure absorbs the join variable, and the attack
     graph is acyclic: FO-rewritable, though outside the Fuxman–Miller
     C-forest fragment. *)
  let hard =
    Cq.make ~name:"hard" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let c = classify rs_keys hard in
  check Alcotest.string "hard verdict" "FO_rewritable"
    (Classify.verdict_label c.verdict);
  check Alcotest.string "hard witness" "attack-graph/acyclic"
    (Classify.witness_code c.witness);
  (* A join cycle that only closes through the free variable x is
     likewise acyclic: R attacks S but not vice versa. *)
  let cyc =
    Cq.make ~name:"cyc" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; x ] ]
  in
  let c = classify rs_keys cyc in
  check Alcotest.string "cyc verdict" "FO_rewritable"
    (Classify.verdict_label c.verdict);
  check Alcotest.string "cyc witness" "attack-graph/acyclic"
    (Classify.witness_code c.witness);
  (* The Boolean cycle carries weak attacks both ways: PTIME per the
     trichotomy, but the recursive rewriting is out of scope. *)
  let bcyc =
    Cq.make ~name:"bcyc" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; x ] ]
  in
  let c = classify rs_keys bcyc in
  check Alcotest.string "weak cycle verdict" "unknown"
    (Classify.verdict_label c.verdict);
  check Alcotest.string "weak cycle witness" "attack-graph/weak-cycle"
    (Classify.witness_code c.witness);
  (* Non-key constraints put the pair outside the dichotomy. *)
  let over_r = Cq.make ~name:"q" [ x ] [ Atom.make "R" [ x; y ] ] in
  let c = classify [ Paper_examples.Denial.kappa ] over_r in
  check Alcotest.string "denial witness" "constraints/non-key"
    (Classify.witness_code c.witness);
  (* Constraints not touching the query's relations are irrelevant. *)
  let c = classify [ emp_key ] over_r in
  check Alcotest.string "foreign constraints" "constraints/none-relevant"
    (Classify.witness_code c.witness);
  check Alcotest.string "still rewritable" "FO_rewritable"
    (Classify.verdict_label c.verdict);
  (* Self-joins escape the dichotomy. *)
  let sj =
    Cq.make ~name:"sj" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "R" [ y; z ] ]
  in
  check Alcotest.string "self-join" "query/self-join"
    (Classify.witness_code (classify rs_keys sj).witness);
  (* Unions are not classified beyond their disjunct count. *)
  let u = Ucq.make ~name:"u" [ names; over_r ] in
  let c = Classify.classify_ucq [ emp_key ] u in
  check Alcotest.string "union witness" "query/union"
    (Classify.witness_code c.witness)

(* ---- Engine dispatch --------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_ucq_diagnostic_names_condition () =
  let rs_keys = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ] in
  let good = Cq.make ~name:"g" [ x ] [ Atom.make "R" [ x; y ] ] in
  (* A weak attack cycle between R and S; x is free through T. *)
  let hard =
    Cq.make ~name:"h" [ x ]
      [ Atom.make "R" [ y; z ]; Atom.make "S" [ z; y ]; Atom.make "T" [ x ] ]
  in
  let d = Classify.ucq_rewriting_diagnostic rs_keys (Ucq.make ~name:"u" [ good; hard ]) in
  check Alcotest.bool "diagnostic names the failing disjunct" true
    (contains ~sub:"disjunct 2" d);
  check Alcotest.bool "diagnostic names the attack graph" true
    (contains ~sub:"attack graph" d);
  (* All-rewritable union: the diagnostic says what is missing instead. *)
  let good2 = Cq.make ~name:"g2" [ x ] [ Atom.make "S" [ x; y ] ] in
  let d = Classify.ucq_rewriting_diagnostic rs_keys (Ucq.make ~name:"u" [ good; good2 ]) in
  check Alcotest.bool "all-rewritable case explained" true
    (contains ~sub:"no union rewriting" d)

let test_engine_auto_dispatch () =
  let emp = Paper_examples.Employee.instance in
  let schema = Paper_examples.Employee.schema in
  let engine = Cqa.Engine.create ~schema ~ics:[ emp_key ] emp in
  let pairs = Cq.make ~name:"pairs" [ x; y ] [ Atom.make "Employee" [ x; y ] ] in
  let plan = Cqa.Engine.plan engine pairs in
  check Alcotest.string "routes to the rewriting" "key_rewriting"
    (Cqa.Engine.route_label plan.Cqa.Engine.route);
  let auto = Cqa.Engine.consistent_answers engine pairs in
  let enum =
    Cqa.Engine.consistent_answers ~method_:`Repair_enumeration engine pairs
  in
  check Alcotest.int "auto = enum" 0 (Stdlib.compare (List.sort compare auto)
    (List.sort compare enum));
  (* page has no certain salary; smith and stowe keep theirs. *)
  check Alcotest.int "two certain pairs" 2 (List.length auto);
  (* No relevant constraints: plain evaluation. *)
  let free = Cqa.Engine.create ~schema ~ics:[] emp in
  let plan = Cqa.Engine.plan free pairs in
  check Alcotest.string "routes direct" "direct"
    (Cqa.Engine.route_label plan.Cqa.Engine.route);
  check Alcotest.int "direct answers everything" 4
    (List.length (Cqa.Engine.consistent_answers free pairs))

let test_engine_rewriting_refusal_is_diagnostic () =
  let schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "a"; "b" ]) ] in
  let db =
    Instance.of_rows schema
      [ ("R", [ [ Value.int 1; Value.int 2 ] ]);
        ("S", [ [ Value.int 3; Value.int 2 ] ]) ]
  in
  let ics = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ] in
  let engine = Cqa.Engine.create ~schema ~ics db in
  (* The acyclic non-C-forest pattern: the key rewriting takes it, on
     both the auto route and the forced method. *)
  let hard =
    Cq.make ~name:"hard" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let plan = Cqa.Engine.plan engine hard in
  check Alcotest.string "acyclic route" "key_rewriting"
    (Cqa.Engine.route_label plan.Cqa.Engine.route);
  check Alcotest.int "auto answers" 1
    (List.length (Cqa.Engine.consistent_answers engine hard));
  check Alcotest.int "forced key rewriting answers" 1
    (List.length
       (Cqa.Engine.consistent_answers ~method_:`Key_rewriting engine hard));
  (* The genuinely hard (Boolean) variant is refused with the
     coNP-hardness witness in the message. *)
  let bhard =
    Cq.make ~name:"bhard" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  match Cqa.Engine.consistent_answers ~method_:`Key_rewriting engine bhard with
  | _ -> Alcotest.fail "key rewriting accepted a coNP-hard pattern"
  | exception Invalid_argument msg ->
      check Alcotest.bool "refusal names the hard verdict" true
        (contains ~sub:"coNP_hard" msg);
      check Alcotest.bool "refusal names the attack graph" true
        (contains ~sub:"strongly" msg)

(* ---- Report determinism ------------------------------------------------ *)

let doc_text =
  String.concat "\n"
    [
      "relation Employee(name, salary)";
      "row Employee(page, 5000)";
      "row Employee(page, 8000)";
      "row Employee(smith, 3000)";
      "key Employee(name)";
      "query names(X) :- Employee(X, Y)";
      "query pairs(X, Y) :- Employee(X, Y)";
    ]

let test_report_determinism () =
  let lines () =
    Cqa.Analyze.lines (Cqa.Analyze.document (Cqa.Parse.document_of_string doc_text))
  in
  let l1 = lines () and l2 = lines () in
  check (Alcotest.list Alcotest.string) "identical across runs" l1 l2;
  (* Finding.sort is order-insensitive and dedups. *)
  let f c s = Finding.make Finding.Warning ~code:c ~subject:s "m" in
  let fs = [ f "b" "s1"; f "a" "s2"; f "a" "s1"; f "b" "s1" ] in
  check (Alcotest.list Alcotest.string) "sort canonicalizes"
    (List.map Finding.to_line (Finding.sort fs))
    (List.map Finding.to_line (Finding.sort (List.rev fs)))

let test_analyze_document_report () =
  let doc = Cqa.Parse.document_of_string doc_text in
  let report = Cqa.Analyze.document doc in
  check Alcotest.bool "clean document" false (Cqa.Analyze.has_errors report);
  check Alcotest.int "two queries" 2 (List.length report.Cqa.Analyze.queries);
  let qlines = Cqa.Analyze.query_lines doc "names" in
  check Alcotest.bool "query lines mention the verdict" true
    (List.exists (contains ~sub:"FO_rewritable") qlines);
  check Alcotest.bool "query lines mention the route" true
    (List.exists (contains ~sub:"route key_rewriting") qlines);
  (match Cqa.Analyze.query_lines doc "nope" with
  | _ -> Alcotest.fail "unknown query accepted"
  | exception Not_found -> ())

(* ---- Server: ANALYZE and the analyzer-backed refusal ------------------- *)

let server_doc =
  [
    "relation T(k, v)";
    "row T(1, 1)";
    "row T(1, 2)";
    "row T(2, 5)";
    "key T(k)";
    "query q(X) :- T(X, Y)";
    "query u(X) :- T(X, Y)";
    "query u(Y) :- T(X, Y)";
  ]

let load h sid =
  match Server.Handler.dispatch h ~payload:server_doc (P.Load sid) with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)

let test_server_analyze () =
  let h = Server.Handler.create () in
  load h "s1";
  let r = Server.Handler.handle_line h "ANALYZE s1" in
  check Alcotest.bool "ANALYZE ok" true (r.P.status = `Ok);
  check Alcotest.bool "head says analyze" true
    (contains ~sub:"analyze" r.P.head);
  check Alcotest.bool "body has the query section" true
    (List.exists (contains ~sub:"verdict FO_rewritable") r.P.body);
  (* Per-query form. *)
  let r = Server.Handler.handle_line h "ANALYZE s1 q" in
  check Alcotest.bool "per-query ok" true (r.P.status = `Ok);
  check Alcotest.bool "per-query verdict" true
    (List.exists (contains ~sub:"verdict FO_rewritable") r.P.body);
  let r = Server.Handler.handle_line h "ANALYZE s1 nope" in
  check Alcotest.bool "unknown query is ERR" true (r.P.status = `Err);
  let r = Server.Handler.handle_line h "ANALYZE nosession" in
  check Alcotest.bool "unknown session is ERR" true (r.P.status = `Err)

let test_server_rewriting_refusal () =
  let h = Server.Handler.create () in
  load h "s1";
  (* u is a union query: rewriting must refuse with the analyzer's
     diagnostic, not a bare "not applicable". *)
  let r = Server.Handler.handle_line h "QUERY s1 u method=rewriting" in
  check Alcotest.bool "refused" true (r.P.status = `Err);
  check Alcotest.bool "diagnostic names the condition" true
    (contains ~sub:"FO-rewritable" r.P.head
    || contains ~sub:"disjunct" r.P.head);
  (* But auto and enum still answer it. *)
  let r = Server.Handler.handle_line h "QUERY s1 u" in
  check Alcotest.bool "auto answers the union" true (r.P.status = `Ok)

let test_server_explain_has_analysis () =
  let h = Server.Handler.create () in
  load h "s1";
  let r = Server.Handler.handle_line h "EXPLAIN s1 q" in
  check Alcotest.bool "EXPLAIN ok" true (r.P.status = `Ok);
  check Alcotest.bool "analysis section present" true
    (List.exists (contains ~sub:"-- analysis") r.P.body);
  check Alcotest.bool "verdict visible" true
    (List.exists (contains ~sub:"verdict") r.P.body)

(* ---- Property: the dispatch is sound ----------------------------------- *)

let prop_schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ]
let prop_ics = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ]

let prop_queries =
  [
    Cq.make ~name:"pairs" [ x; y ] [ Atom.make "R" [ x; y ] ];
    Cq.make ~name:"keys" [ x ] [ Atom.make "R" [ x; y ] ];
    Cq.make ~name:"chain" [ x; z ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ];
  ]

let arb_db =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 0 6) (pair (int_range 0 2) (int_range 0 3)))
        (list_size (int_range 0 6) (pair (int_range 0 3) (int_range 0 2))))
    ~print:(fun (rs, ss) ->
      let row (a, b) = Printf.sprintf "(%d,%d)" a b in
      Printf.sprintf "R=%s S=%s"
        (String.concat "" (List.map row rs))
        (String.concat "" (List.map row ss)))

let prop_fo_rewritable_is_sound =
  QCheck.Test.make ~count:150
    ~name:"FO_rewritable => rewriting agrees with enumeration" arb_db
    (fun (rs, ss) ->
      let db =
        Instance.of_rows prop_schema
          [
            ("R", List.map (fun (a, b) -> [ Value.int a; Value.int b ]) rs);
            ("S", List.map (fun (a, b) -> [ Value.int a; Value.int b ]) ss);
          ]
      in
      let engine = Cqa.Engine.create ~schema:prop_schema ~ics:prop_ics db in
      List.for_all
        (fun q ->
          match (Classify.classify prop_ics q).Classify.verdict with
          | Classify.Fo_rewritable ->
              let rw =
                Cqa.Engine.consistent_answers ~method_:`Key_rewriting engine q
              in
              let enum =
                Cqa.Engine.consistent_answers ~method_:`Repair_enumeration
                  engine q
              in
              List.sort compare rw = List.sort compare enum
          | _ -> true)
        prop_queries)

let suite =
  [
    Alcotest.test_case "unsafe datalog rule" `Quick test_unsafe_datalog_rule;
    Alcotest.test_case "unsafe asp rule" `Quick test_unsafe_asp_rule;
    Alcotest.test_case "stratification" `Quick test_datalog_stratification;
    Alcotest.test_case "unused/undefined predicates" `Quick
      test_datalog_unused_and_undefined;
    Alcotest.test_case "dependency graph" `Quick test_depgraph_structure;
    Alcotest.test_case "weak acyclicity" `Quick test_weak_acyclicity;
    Alcotest.test_case "IND cycles and conformance" `Quick
      test_ind_cycle_and_conformance;
    Alcotest.test_case "paper repair programs analyze clean" `Quick
      test_paper_repair_programs_clean;
    Alcotest.test_case "classifier verdicts" `Quick test_classifier_verdicts;
    Alcotest.test_case "ucq diagnostic" `Quick
      test_ucq_diagnostic_names_condition;
    Alcotest.test_case "engine auto dispatch" `Quick test_engine_auto_dispatch;
    Alcotest.test_case "rewriting refusal is diagnostic" `Quick
      test_engine_rewriting_refusal_is_diagnostic;
    Alcotest.test_case "report determinism" `Quick test_report_determinism;
    Alcotest.test_case "document report" `Quick test_analyze_document_report;
    Alcotest.test_case "server ANALYZE" `Quick test_server_analyze;
    Alcotest.test_case "server rewriting refusal" `Quick
      test_server_rewriting_refusal;
    Alcotest.test_case "server EXPLAIN analysis section" `Quick
      test_server_explain_has_analysis;
    QCheck_alcotest.to_alcotest prop_fo_rewritable_is_sound;
  ]
