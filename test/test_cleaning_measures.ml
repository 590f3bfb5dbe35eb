module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Quality = Cleaning.Quality
module Cost_clean = Cleaning.Cost_clean
module Degree = Measures.Degree
open Logic
open Paper_examples

let check = Alcotest.check
let flt = Alcotest.float 1e-9
let rows_to_strings rows = List.map (List.map Value.to_string) rows

(* Section 6: the CC/AC/phone table with the CFD [CC=44, Zip] -> [Street]. *)
let cust_schema =
  Schema.of_list
    [ ("Cust", [ "cc"; "ac"; "phone"; "name"; "street"; "city"; "zip" ]) ]

let cust_row cc ac ph nm st ct zp = [ i cc; i ac; v ph; v nm; v st; v ct; v zp ]

let cust_db =
  Instance.of_rows cust_schema
    [
      ( "Cust",
        [
          cust_row 44 131 "1234567" "mike" "mayfield" "NYC" "EH4 8LE";
          cust_row 44 131 "3456789" "rick" "crichton" "NYC" "EH4 8LE";
          cust_row 01 908 "3456789" "joe" "mtn ave" "NYC" "07974";
        ] );
    ]

let cust_cfd =
  Constraints.Ic.cfd ~rel:"Cust" ~lhs:[ 0; 6 ] ~rhs:[ 4 ]
    ~pat:[ (0, Some (Value.int 44)); (6, None); (4, None) ]

(* E10: quality answers wrt the CFD. *)
let test_quality_answers () =
  let q =
    Cq.make [ Term.var "n" ]
      [
        Atom.make "Cust"
          [
            Term.var "cc";
            Term.var "ac";
            Term.var "ph";
            Term.var "n";
            Term.var "st";
            Term.var "ct";
            Term.var "zp";
          ];
      ]
  in
  let rows = Quality.quality_answers cust_db cust_schema [ cust_cfd ] q in
  (* Names survive every repair: either mike or rick is deleted, joe stays;
     names are certain answers... mike and rick each appear in one repair
     only, so only joe is a quality answer for the name query?  No: the
     projection keeps the surviving tuple's name. mike survives in the
     repair deleting rick and vice versa, so only joe is in all repairs. *)
  check
    Alcotest.(list (list string))
    "joe is quality-certain"
    [ [ "joe" ] ]
    (rows_to_strings rows)

let test_answer_frequencies () =
  let q =
    Cq.make [ Term.var "n" ]
      [
        Atom.make "Cust"
          [
            Term.var "cc";
            Term.var "ac";
            Term.var "ph";
            Term.var "n";
            Term.var "st";
            Term.var "ct";
            Term.var "zp";
          ];
      ]
  in
  let freqs = Quality.answer_frequencies cust_db cust_schema [ cust_cfd ] q in
  let find name =
    List.assoc [ Value.str name ]
      (List.map (fun (r, f) -> (r, f)) freqs)
  in
  check flt "joe in all repairs" 1.0 (find "joe");
  check flt "mike in half" 0.5 (find "mike");
  check flt "rick in half" 0.5 (find "rick");
  let majority = Quality.majority_answers cust_db cust_schema [ cust_cfd ] q in
  check
    Alcotest.(list (list string))
    "majority = joe only"
    [ [ "joe" ] ]
    (rows_to_strings majority)

let test_cost_clean_fd () =
  (* Employee key violations: page 5 vs page 8; cleaning overwrites one
     salary so the FD holds, at cost 1 change. *)
  let result =
    Cost_clean.clean Employee.instance Employee.schema [ Employee.key ]
  in
  check Alcotest.bool "cleaned is consistent" true
    (Constraints.Violation.is_consistent result.Cost_clean.cleaned
       Employee.schema [ Employee.key ]);
  check Alcotest.int "one change suffices" 1 result.Cost_clean.cost

let test_cost_clean_supports_majority () =
  (* Three tuples with key k: values 7, 7, 9 — majority value 7 wins. *)
  let schema = Schema.of_list [ ("T", [ "k"; "v" ]) ] in
  let db =
    Instance.of_rows schema
      [
        ( "T",
          [
            [ Value.int 1; Value.int 7 ];
            [ Value.int 1; Value.int 9 ];
            [ Value.int 2; Value.int 7 ];
          ] );
      ]
  in
  let key = Constraints.Ic.key ~rel:"T" [ 0 ] in
  let result = Cost_clean.clean db schema [ key ] in
  check Alcotest.bool "consistent" true
    (Constraints.Violation.is_consistent result.Cost_clean.cleaned schema
       [ key ]);
  (* The value 9 (support 1) is overwritten by 7 (support 2). *)
  List.iter
    (fun (c : Cost_clean.change) ->
      check Alcotest.bool "overwrites 9 with 7" true
        (Value.equal c.old_value (Value.int 9)
        && Value.equal c.new_value (Value.int 7)))
    result.Cost_clean.changes

let test_cost_clean_rejects_denials () =
  Alcotest.check_raises "denials unsupported"
    (Invalid_argument "Cost_clean.clean: unsupported constraint kappa")
    (fun () ->
      ignore (Cost_clean.clean Denial.instance Denial.schema [ Denial.kappa ]))

(* B6 spot checks: measures. *)
let test_measures_consistent_db () =
  let db = Instance.of_rows Employee.schema [ ("Employee", [ [ v "a"; i 1 ] ]) ] in
  List.iter
    (fun (_, x) -> check flt "all zero on consistent" 0.0 x)
    (Degree.all db Employee.schema [ Employee.key ])

let test_measures_employee () =
  check flt "drastic" 1.0 (Degree.drastic Employee.instance Employee.schema [ Employee.key ]);
  (* One C-repair deletion out of four tuples. *)
  check flt "repair-based = 1/4" 0.25
    (Degree.repair_based Employee.instance Employee.schema [ Employee.key ]);
  (* Two of four tuples are in conflict. *)
  check flt "conflicting ratio = 1/2" 0.5
    (Degree.conflicting_tuple_ratio Employee.instance Employee.schema
       [ Employee.key ])

let test_measures_monotone_in_conflicts () =
  let degree_at frac =
    let db, key =
      Workload.Gen.key_conflict_instance ~seed:7 ~n:40 ~conflict_fraction:frac ()
    in
    Degree.repair_based db (Instance.schema db) [ key ]
  in
  check Alcotest.bool "more conflicts, higher degree" true
    (degree_at 0.0 <= degree_at 0.2 && degree_at 0.2 <= degree_at 0.6)

let test_workload_generators () =
  let db, key = Workload.Gen.key_conflict_chain ~seed:3 ~pairs:4 () in
  let repairs = Repairs.S_repair.enumerate db (Instance.schema db) [ key ] in
  check Alcotest.int "2^4 repairs" 16 (List.length repairs);
  let db2, kappa =
    Workload.Gen.denial_instance ~seed:3 ~n:30 ~conflict_fraction:0.3 ()
  in
  check Alcotest.bool "denial instance inconsistent" false
    (Constraints.Violation.is_consistent db2 (Instance.schema db2) [ kappa ]);
  let db3, ind = Workload.Gen.ind_instance ~seed:3 ~n:30 ~dangling_fraction:0.2 () in
  check Alcotest.bool "ind instance inconsistent" false
    (Constraints.Violation.is_consistent db3 (Instance.schema db3) [ ind ])

let suite =
  [
    Alcotest.test_case "quality answers (E10)" `Quick test_quality_answers;
    Alcotest.test_case "answer frequencies / majority" `Quick
      test_answer_frequencies;
    Alcotest.test_case "cost-based cleaning on FDs" `Quick test_cost_clean_fd;
    Alcotest.test_case "cleaning prefers majority values" `Quick
      test_cost_clean_supports_majority;
    Alcotest.test_case "cleaning rejects denials" `Quick
      test_cost_clean_rejects_denials;
    Alcotest.test_case "measures: consistent db" `Quick test_measures_consistent_db;
    Alcotest.test_case "measures: Employee" `Quick test_measures_employee;
    Alcotest.test_case "measures monotone in conflicts" `Quick
      test_measures_monotone_in_conflicts;
    Alcotest.test_case "workload generators" `Quick test_workload_generators;
  ]
