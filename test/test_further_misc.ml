(* Magic sets, causal effect, secrecy views, CQA approximation, parser. *)

module Instance = Relational.Instance
module Schema = Relational.Schema
module Value = Relational.Value
module Fact = Relational.Fact
module Tid = Relational.Tid
module Magic = Datalog.Magic
module P = Workload.Paper
open Logic

let check = Alcotest.check
let flt = Alcotest.float 1e-9
let v = Value.str
let fact rel values = Fact.make rel (List.map v values)

(* --- magic sets --- *)

let x = Term.var "X"
let y = Term.var "Y"
let z = Term.var "Z"

let tc_program =
  Datalog.Program.make
    [
      Datalog.Rule.make (Atom.make "path" [ x; y ]) [ Atom.make "edge" [ x; y ] ];
      Datalog.Rule.make
        (Atom.make "path" [ x; z ])
        [ Atom.make "edge" [ x; y ]; Atom.make "path" [ y; z ] ];
    ]

(* Two disconnected chains: a->b->c and u->v->w->s->t; magic evaluation
   from source a never explores the second component. *)
let edges =
  [
    fact "edge" [ "a"; "b" ];
    fact "edge" [ "b"; "c" ];
    fact "edge" [ "u"; "v" ];
    fact "edge" [ "v"; "w" ];
    fact "edge" [ "w"; "s" ];
    fact "edge" [ "s"; "t" ];
  ]

let test_magic_answers () =
  let query = Atom.make "path" [ Term.str "a"; Term.var "Z" ] in
  let rows = Magic.answers tc_program edges ~query in
  check Alcotest.int "a reaches b and c" 2 (List.length rows);
  (* Same answers as the plain program, restricted to the query constants. *)
  let plain =
    Datalog.Eval.query tc_program edges "path"
    |> List.filter (fun row -> row <> [] && Value.equal (List.hd row) (v "a"))
  in
  check Alcotest.int "matches plain evaluation" (List.length plain)
    (List.length rows)

let test_magic_focuses () =
  let query = Atom.make "path" [ Term.str "a"; Term.var "Z" ] in
  let plain, magic = Magic.derived_count tc_program edges ~query in
  check Alcotest.bool "magic derives fewer facts" true (magic < plain)

let test_magic_boolean_query () =
  let query = Atom.make "path" [ Term.str "a"; Term.str "c" ] in
  check Alcotest.int "a reaches c" 1
    (List.length (Magic.answers tc_program edges ~query));
  let no = Atom.make "path" [ Term.str "a"; Term.str "w" ] in
  check Alcotest.int "a does not reach w" 0
    (List.length (Magic.answers tc_program edges ~query:no))

let test_magic_rejects () =
  let neg_program =
    Datalog.Program.make
      [
        Datalog.Rule.make
          ~neg:[ Atom.make "q" [ x ] ]
          (Atom.make "p" [ x ])
          [ Atom.make "d" [ x ] ];
      ]
  in
  (match Magic.optimize neg_program ~query:(Atom.make "p" [ Term.str "a" ]) with
  | exception Magic.Unsupported _ -> ()
  | _ -> Alcotest.fail "negation should be rejected");
  match Magic.optimize tc_program ~query:(Atom.make "edge" [ x; y ]) with
  | exception Magic.Unsupported _ -> ()
  | _ -> Alcotest.fail "EDB query should be rejected"

let prop_magic_equivalence =
  QCheck.Test.make ~count:80 ~name:"magic answers = plain answers"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 10)
           (pair (int_range 0 5) (int_range 0 5)))
        (int_range 0 5))
    (fun (edge_pairs, source) ->
      let edb =
        List.map
          (fun (a, b) ->
            Fact.make "edge" [ Value.int a; Value.int b ])
          edge_pairs
      in
      let query = Atom.make "path" [ Term.int source; Term.var "Z" ] in
      let magic = Magic.answers tc_program edb ~query in
      let plain =
        Datalog.Eval.query tc_program edb "path"
        |> List.filter (fun row ->
               row <> [] && Value.equal (List.hd row) (Value.int source))
      in
      List.sort compare magic = List.sort compare plain)

(* --- causal effect --- *)

let test_causal_effect_single () =
  let schema = Schema.of_list [ ("Pr", [ "x" ]) ] in
  let db = Instance.of_rows schema [ ("Pr", [ [ v "a" ] ]) ] in
  let q = Cq.make [] [ Atom.make "Pr" [ Term.var "X" ] ] in
  check flt "single tuple is decisive" 1.0
    (Causality.Causal_effect.exact db q (Tid.of_int 1))

let test_causal_effect_pair () =
  let schema = Schema.of_list [ ("Pr", [ "x" ]) ] in
  let db = Instance.of_rows schema [ ("Pr", [ [ v "a" ]; [ v "b" ] ]) ] in
  let q = Cq.make [] [ Atom.make "Pr" [ Term.var "X" ] ] in
  check flt "each of two contributes 1/2" 0.5
    (Causality.Causal_effect.exact db q (Tid.of_int 1))

let test_causal_effect_irrelevant () =
  (* R(a2,a1) never participates in κ's query: its causal effect is 0. *)
  check flt "irrelevant tuple: CE = 0" 0.0
    (Causality.Causal_effect.exact P.Denial.instance P.Denial.q (Tid.of_int 2));
  check Alcotest.bool "counterfactual cause has positive effect" true
    (Causality.Causal_effect.exact P.Denial.instance P.Denial.q (Tid.of_int 6)
     > 0.0)

let test_causal_effect_sampled () =
  let exact = Causality.Causal_effect.exact P.Denial.instance P.Denial.q (Tid.of_int 6) in
  let sampled =
    Causality.Causal_effect.sampled ~seed:5 ~samples:4000 P.Denial.instance
      P.Denial.q (Tid.of_int 6)
  in
  check Alcotest.bool "sampled within 0.05 of exact" true
    (Float.abs (exact -. sampled) < 0.05)

let test_causal_effect_ranking () =
  let ranking = Causality.Causal_effect.ranking P.Denial.instance P.Denial.q in
  check Alcotest.int "all six tuples ranked" 6 (List.length ranking);
  List.iter
    (fun (_, ce) -> check Alcotest.bool "effect in [0,1]" true (ce >= 0.0 && ce <= 1.0))
    ranking;
  (* The counterfactual cause dominates the irrelevant tuple. *)
  let ce tid = List.assoc (Tid.of_int tid) ranking in
  check Alcotest.bool "CE(ι6) > CE(ι2)" true (ce 6 > ce 2)

(* --- secrecy views --- *)

let test_privacy_hide () =
  (* Hide who earns 8 in the Employee table. *)
  let view =
    Cq.make ~name:"secret"
      ~comps:[ Cmp.eq (Term.var "S") (Term.int 8) ]
      [ Term.var "N" ]
      [ Atom.make "Employee" [ Term.var "N"; Term.var "S" ] ]
  in
  let secured =
    Cleaning.Privacy.hide P.Employee.instance P.Employee.schema ~views:[ view ]
  in
  check Alcotest.bool "no leak" false
    (Cleaning.Privacy.leaks secured ~views:[ view ]);
  check Alcotest.int "secret view is empty" 0
    (List.length (Cleaning.Privacy.secret_answers secured view));
  (* Non-secret data survives: every employee name is still certain. *)
  let names = Cleaning.Privacy.secret_answers secured P.Employee.names_query in
  check Alcotest.int "names preserved" 3 (List.length names)

let test_privacy_impossible () =
  (* A bare projection view has no breakable cell: hiding must fail. *)
  let view =
    Cq.make ~name:"all" [ Term.var "N" ]
      [ Atom.make "Employee" [ Term.var "N"; Term.var "S" ] ]
  in
  Alcotest.check_raises "cannot hide"
    (Invalid_argument
       "Privacy.hide: some secrecy view cannot be emptied by NULL updates")
    (fun () ->
      ignore
        (Cleaning.Privacy.hide P.Employee.instance P.Employee.schema
           ~views:[ view ]))

let test_privacy_consistent_view () =
  (* A view that is already empty requires no change. *)
  let view =
    Cq.make ~name:"none"
      ~comps:[ Cmp.eq (Term.var "S") (Term.int 999) ]
      [ Term.var "N" ]
      [ Atom.make "Employee" [ Term.var "N"; Term.var "S" ] ]
  in
  let secured =
    Cleaning.Privacy.hide P.Employee.instance P.Employee.schema ~views:[ view ]
  in
  check Alcotest.int "original kept" 1 (List.length secured.Cleaning.Privacy.secured);
  check Alcotest.bool "unchanged" true
    (Instance.equal
       (List.hd secured.Cleaning.Privacy.secured)
       P.Employee.instance)

(* --- approximation --- *)

let schema_kv = Schema.of_list [ ("T", [ "k"; "v" ]) ]
let key_kv = Constraints.Ic.key ~rel:"T" [ 0 ]

let instance_of rows =
  Instance.of_rows schema_kv
    [ ("T", List.map (fun (k, s) -> [ Value.int k; Value.int s ]) rows) ]

let full_q = Workload.Gen.full_tuple_query ()
let proj_q = Workload.Gen.employees_query ()

let exact_answers db q =
  let eng = Cqa.Engine.create ~schema:schema_kv ~ics:[ key_kv ] db in
  Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q

let subset a b = List.for_all (fun r -> List.mem r b) a

let prop_approx_brackets =
  QCheck.Test.make ~count:80 ~name:"under ⊆ exact ⊆ over"
    QCheck.(
      make
        Gen.(list_size (int_range 1 8) (pair (int_range 0 3) (int_range 0 3)))
        ~print:(fun rows ->
          String.concat ";"
            (List.map (fun (k, s) -> Printf.sprintf "%d,%d" k s) rows)))
    (fun rows ->
      let db = instance_of rows in
      let eng = Cqa.Engine.create ~schema:schema_kv ~ics:[ key_kv ] db in
      List.for_all
        (fun q ->
          let exact = exact_answers db q in
          let under = Cqa.Approx.under_approximation eng q in
          let over = Cqa.Approx.over_approximation ~samples:4 eng q in
          subset under exact && subset exact over)
        [ full_q; proj_q ])

let test_approx_bounds_exactness () =
  let eng =
    Cqa.Engine.create ~schema:P.Employee.schema ~ics:[ P.Employee.key ]
      P.Employee.instance
  in
  let b = Cqa.Approx.bounds ~samples:16 eng P.Employee.full_query in
  check Alcotest.bool "bounds bracket" true
    (subset b.Cqa.Approx.under b.Cqa.Approx.over);
  (* On the full-tuple query the residue rewriting is exact, and 16 samples
     of a two-repair space intersect to the exact answers. *)
  check Alcotest.bool "interval closes" true b.Cqa.Approx.exact

(* --- parser --- *)

let doc_text =
  {|% test document
relation Employee(name, salary)
row Employee(page, 5)
row Employee(page, 8)
row Employee("mc gee", 7)
key Employee(name)
fd Employee: name -> salary
dc no_nine: Employee(X, Y), Y = 9
query names(X) :- Employee(X, Y)
query rich(X) :- Employee(X, Y), Y > 6
|}

let test_parse_document () =
  let doc = Cqa.Parse.document_of_string doc_text in
  check Alcotest.int "three rows" 3 (Instance.size doc.Cqa.Parse.instance);
  check Alcotest.int "three constraints" 3 (List.length doc.Cqa.Parse.ics);
  check Alcotest.int "two queries" 2 (List.length doc.Cqa.Parse.queries);
  check Alcotest.bool "quoted value kept" true
    (Instance.mem_fact doc.Cqa.Parse.instance
       (Fact.make "Employee" [ Value.str "mc gee"; Value.int 7 ]));
  let q = Cqa.Parse.find_query doc "rich" in
  let rows = Cq.answers q doc.Cqa.Parse.instance in
  check Alcotest.int "rich: page(8) and mc gee(7)" 2 (List.length rows)

let test_parse_errors () =
  let expect_error text =
    match Cqa.Parse.document_of_string text with
    | exception Cqa.Parse.Error (_, _) -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "bogus directive";
  expect_error "row Unknown(1)";
  expect_error "relation R(a)\nrow R(\"unterminated)";
  expect_error "relation R(a)\nkey R(nope)";
  expect_error "relation R(a, a)"

let test_parse_null_and_ind () =
  let doc =
    Cqa.Parse.document_of_string
      {|relation Supply(company, receiver, item)
relation Articles(item)
row Supply(c1, r1, null)
ind Supply[item] <= Articles[item]
|}
  in
  check Alcotest.bool "null parsed" true
    (Instance.mem_fact doc.Cqa.Parse.instance
       (Fact.make "Supply" [ v "c1"; v "r1"; Value.Null ]));
  match doc.Cqa.Parse.ics with
  | [ Constraints.Ic.Ind i ] ->
      check Alcotest.(pair string (list int)) "sub side" ("Supply", [ 2 ]) i.Constraints.Ic.sub
  | _ -> Alcotest.fail "expected one IND"

let test_parse_cfd () =
  let doc =
    Cqa.Parse.document_of_string
      {|relation Cust(cc, zip, street)
row Cust(44, "EH4", mayfield)
row Cust(44, "EH4", crichton)
row Cust(1, "07974", "mtn ave")
cfd Cust: cc = 44, zip -> street
|}
  in
  match doc.Cqa.Parse.ics with
  | [ (Constraints.Ic.Cfd c) as ic ] ->
      check Alcotest.(list int) "lhs positions" [ 0; 1 ] c.Constraints.Ic.lhs;
      check Alcotest.bool "violated by the EH4 pair" false
        (Constraints.Violation.is_consistent doc.Cqa.Parse.instance
           doc.Cqa.Parse.schema [ ic ])
  | _ -> Alcotest.fail "expected one CFD"

let test_parse_find_ucq () =
  let doc =
    Cqa.Parse.document_of_string
      {|relation E(n, s)
row E(page, 5)
row E(page, 8)
key E(n)
query earns() :- E(page, 5)
query earns() :- E(page, 8)
|}
  in
  let u = Cqa.Parse.find_ucq doc "earns" in
  check Alcotest.int "two disjuncts" 2 (List.length u.Ucq.disjuncts);
  let eng =
    Cqa.Engine.create ~schema:doc.Cqa.Parse.schema ~ics:doc.Cqa.Parse.ics
      doc.Cqa.Parse.instance
  in
  check Alcotest.int "the disjunction is certain" 1
    (List.length (Cqa.Engine.consistent_answers_ucq eng u))

let suite =
  [
    Alcotest.test_case "parse: cfd directive" `Quick test_parse_cfd;
    Alcotest.test_case "parse: find_ucq" `Quick test_parse_find_ucq;
    Alcotest.test_case "magic sets: answers" `Quick test_magic_answers;
    Alcotest.test_case "magic sets: focusing" `Quick test_magic_focuses;
    Alcotest.test_case "magic sets: boolean query" `Quick test_magic_boolean_query;
    Alcotest.test_case "magic sets: rejections" `Quick test_magic_rejects;
    QCheck_alcotest.to_alcotest prop_magic_equivalence;
    Alcotest.test_case "causal effect: decisive tuple" `Quick
      test_causal_effect_single;
    Alcotest.test_case "causal effect: shared responsibility" `Quick
      test_causal_effect_pair;
    Alcotest.test_case "causal effect: irrelevant tuple" `Quick
      test_causal_effect_irrelevant;
    Alcotest.test_case "causal effect: sampling converges" `Quick
      test_causal_effect_sampled;
    Alcotest.test_case "causal effect: ranking" `Quick test_causal_effect_ranking;
    Alcotest.test_case "privacy: hide a view" `Quick test_privacy_hide;
    Alcotest.test_case "privacy: impossible view" `Quick test_privacy_impossible;
    Alcotest.test_case "privacy: already-empty view" `Quick
      test_privacy_consistent_view;
    QCheck_alcotest.to_alcotest prop_approx_brackets;
    Alcotest.test_case "approximation bounds close" `Quick
      test_approx_bounds_exactness;
    Alcotest.test_case "parse: full document" `Quick test_parse_document;
    Alcotest.test_case "parse: errors" `Quick test_parse_errors;
    Alcotest.test_case "parse: null and IND" `Quick test_parse_null_and_ind;
  ]
