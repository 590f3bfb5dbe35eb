module Instance = Relational.Instance
module Value = Relational.Value
module Engine = Cqa.Engine
open Logic
open Paper_examples

let check = Alcotest.check
let rows_to_strings rows = List.map (List.map Value.to_string) rows

let employee_engine =
  Engine.create ~schema:Employee.schema ~ics:[ Employee.key ] Employee.instance

let q_full =
  Cq.make [ Term.var "x"; Term.var "y" ]
    [ Atom.make "Employee" [ Term.var "x"; Term.var "y" ] ]

let q_proj =
  Cq.make [ Term.var "x" ] [ Atom.make "Employee" [ Term.var "x"; Term.var "y" ] ]

let test_methods_agree () =
  let expected = [ [ "smith"; "3" ]; [ "stowe"; "7" ] ] in
  List.iter
    (fun m ->
      check
        Alcotest.(list (list string))
        "full-tuple query" expected
        (rows_to_strings (Engine.consistent_answers ~method_:m employee_engine q_full)))
    [ `Repair_enumeration; `Key_rewriting; `Asp; `Auto ]

let test_projection_methods () =
  let expected = [ [ "page" ]; [ "smith" ]; [ "stowe" ] ] in
  List.iter
    (fun m ->
      check
        Alcotest.(list (list string))
        "projection query" expected
        (rows_to_strings (Engine.consistent_answers ~method_:m employee_engine q_proj)))
    [ `Repair_enumeration; `Key_rewriting; `Asp; `Auto ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_key_rewriting_refuses_denials () =
  let eng =
    Engine.create ~schema:Denial.schema ~ics:[ Denial.kappa ] Denial.instance
  in
  let q = Cq.make [ Term.var "x" ] [ Atom.make "S" [ Term.var "x" ] ] in
  (* The refusal carries the classifier's witness: it must name the
     constraint that takes the pair outside the key class. *)
  (match Engine.consistent_answers ~method_:`Key_rewriting eng q with
  | _ -> Alcotest.fail "key rewriting accepted a denial constraint"
  | exception Invalid_argument msg ->
      List.iter
        (fun part ->
          if not (contains ~sub:part msg) then
            Alcotest.fail
              (Printf.sprintf "refusal %S does not mention %S" msg part))
        [ "not applicable"; "constraints/non-key"; "kappa" ]);
  (* Auto falls back to repair enumeration. *)
  let rows = Engine.consistent_answers eng q in
  check
    Alcotest.(list (list string))
    "S certain members"
    [ [ "a2" ] ]
    (rows_to_strings rows)

let test_engine_misc () =
  check Alcotest.bool "inconsistent" false (Engine.is_consistent employee_engine);
  check Alcotest.int "two S-repairs" 2 (List.length (Engine.s_repairs employee_engine));
  check Alcotest.int "two C-repairs" 2 (List.length (Engine.c_repairs employee_engine));
  check (Alcotest.float 1e-9) "degree 1/4" 0.25
    (Engine.inconsistency_degree employee_engine);
  let g = Engine.conflict_graph employee_engine in
  check Alcotest.int "one conflict edge" 1
    (List.length g.Constraints.Conflict_graph.edges)

let test_engine_causes () =
  let eng = Engine.create ~schema:Denial.schema ~ics:[] Denial.instance in
  let causes = Engine.causes eng Denial.q in
  check Alcotest.int "four causes" 4 (List.length causes)

let test_c_semantics () =
  let eng =
    Engine.create ~schema:Hypergraph.schema ~ics:Hypergraph.dcs Hypergraph.instance
  in
  let qd = Cq.make [ Term.var "x" ] [ Atom.make "D" [ Term.var "x" ] ] in
  check Alcotest.int "S: none" 0
    (List.length (Engine.consistent_answers eng qd));
  check Alcotest.int "C: one" 1 (List.length (Engine.consistent_answers_c eng (Ucq.of_cq qd)))

(* A session whose reads never go through SAT keeps no earlier instance
   alive across its writes: the LOAD instance, with its views and their
   join indexes, is collectable once the engine has moved past it. *)
let[@inline never] load_employees weak =
  let db =
    Instance.of_facts Employee.schema (Instance.fact_list Employee.instance)
  in
  Weak.set weak 0 (Some db);
  Engine.create ~schema:Employee.schema ~ics:[ Employee.key ] db

let test_writes_without_sat_pin_nothing () =
  let weak = Weak.create 1 in
  let eng = ref (load_employees weak) in
  ignore (Engine.consistent_answers !eng q_proj);
  for i = 1 to 20 do
    eng :=
      Engine.update !eng `Add
        (Relational.Fact.make "Employee"
           [ Value.str (Printf.sprintf "e%d" i); Value.int i ]);
    ignore (Engine.consistent_answers !eng q_proj)
  done;
  Gc.full_major ();
  let collected = Option.is_none (Weak.get weak 0) in
  (* The engine is used after the collection, so it was live through it. *)
  check Alcotest.int "23 certain names" 23
    (List.length (Engine.consistent_answers !eng q_proj));
  check Alcotest.bool "LOAD instance collected" true collected

let suite =
  [
    Alcotest.test_case "writes without a SAT read pin no instance" `Quick
      test_writes_without_sat_pin_nothing;
    Alcotest.test_case "all methods agree (full tuple)" `Quick test_methods_agree;
    Alcotest.test_case "all methods agree (projection)" `Quick
      test_projection_methods;
    Alcotest.test_case "key rewriting applicability" `Quick
      test_key_rewriting_refuses_denials;
    Alcotest.test_case "repairs, degree, graph" `Quick test_engine_misc;
    Alcotest.test_case "causes facade" `Quick test_engine_causes;
    Alcotest.test_case "S vs C semantics" `Quick test_c_semantics;
  ]
