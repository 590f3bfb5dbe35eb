module Instance = Relational.Instance
module Schema = Relational.Schema
module Value = Relational.Value
module Tid = Relational.Tid
module Cause = Causality.Cause
module Attr_cause = Causality.Attr_cause
module Under_ics = Causality.Under_ics
open Logic
open Paper_examples

let check = Alcotest.check
let flt = Alcotest.float 1e-9

(* E11 (Example 7.1): causes and responsibilities for Q in D. *)
let test_causes_ex71 () =
  let causes = Cause.actual_causes Denial.instance Denial.schema Denial.q in
  check
    Alcotest.(list int)
    "four actual causes"
    [ 1; 3; 4; 6 ]
    (List.map (fun c -> Tid.to_int c.Cause.tid) causes);
  let rho tid =
    Cause.responsibility Denial.instance Denial.schema Denial.q (Tid.of_int tid)
  in
  check flt "S(a3) counterfactual" 1.0 (rho 6);
  check flt "R(a4,a3) half" 0.5 (rho 1);
  check flt "R(a3,a3) half" 0.5 (rho 3);
  check flt "S(a4) half" 0.5 (rho 4);
  check flt "R(a2,a1) not a cause" 0.0 (rho 2);
  check flt "S(a2) not a cause" 0.0 (rho 5)

let test_counterfactual_and_mrac () =
  check
    Alcotest.(list int)
    "only S(a3) counterfactual" [ 6 ]
    (List.map Tid.to_int
       (Cause.counterfactual_causes Denial.instance Denial.schema Denial.q));
  check
    Alcotest.(list int)
    "MRAC is S(a3)" [ 6 ]
    (List.map Tid.to_int
       (Cause.most_responsible Denial.instance Denial.schema Denial.q))

let test_false_query_no_causes () =
  let q = Cq.make [] [ Atom.make "S" [ Term.str "zz" ] ] in
  check Alcotest.int "no causes for false query" 0
    (List.length (Cause.actual_causes Denial.instance Denial.schema q))

(* The generic (direct-definition) engine agrees with the repair-based one
   on Example 7.1. *)
let test_generic_agrees () =
  let holds = Cause.holds Denial.q in
  let generic = Cause.generic_actual_causes ~holds Denial.instance in
  let repair_based = Cause.actual_causes Denial.instance Denial.schema Denial.q in
  check Alcotest.int "same number" (List.length repair_based) (List.length generic);
  List.iter2
    (fun (g : Cause.t) (r : Cause.t) ->
      check Alcotest.int "same tid" (Tid.to_int r.tid) (Tid.to_int g.tid);
      check flt "same responsibility" r.responsibility g.responsibility)
    generic repair_based

(* E13 (Example 7.3): attribute-level causes. *)
let test_attr_causes () =
  let causes = Attr_cause.actual_causes Denial.instance Denial.schema Denial.q in
  let rho tid pos =
    Attr_cause.responsibility Denial.instance Denial.schema Denial.q
      (Tid.Cell.make (Tid.of_int tid) pos)
  in
  check flt "ι6[1] counterfactual" 1.0 (rho 6 1);
  check flt "ι1[2] actual with |Γ|=1" 0.5 (rho 1 2);
  check flt "ι3[2] actual with |Γ|=1" 0.5 (rho 3 2);
  check flt "ι2[1] not a cause" 0.0 (rho 2 1);
  check Alcotest.bool "some causes found" true (causes <> [])

(* E14 (Example 7.4): causality under an inclusion dependency. *)
module Courses = struct
  let schema =
    Schema.of_list
      [ ("Dep", [ "dname"; "tstaff" ]); ("Course", [ "cname"; "tstaff"; "dname" ]) ]

  (* tids: Dep t1..t3 then Course t4..t8, matching ι1..ι8. *)
  let instance =
    Instance.of_rows schema
      [
        ( "Dep",
          [
            [ v "Computing"; v "John" ];
            [ v "Philosophy"; v "Patrick" ];
            [ v "Math"; v "Kevin" ];
          ] );
        ( "Course",
          [
            [ v "COM08"; v "John"; v "Computing" ];
            [ v "Math01"; v "Kevin"; v "Math" ];
            [ v "HIST02"; v "Patrick"; v "Philosophy" ];
            [ v "Math08"; v "Eli"; v "Math" ];
            [ v "COM01"; v "John"; v "Computing" ];
          ] );
      ]

  let psi = Constraints.Ic.ind ~sub:("Dep", [ 0; 1 ]) ~sup:("Course", [ 2; 1 ])

  let x = Term.var "x"
  let y = Term.var "y"
  let z = Term.var "z"

  (* (A) Q(x): ∃y∃z (Dep(y,x) ∧ Course(z,x,y)) *)
  let q =
    Cq.make ~name:"QA" [ x ] [ Atom.make "Dep" [ y; x ]; Atom.make "Course" [ z; x; y ] ]

  (* (C) Q2(x): ∃y∃z Course(z,x,y) *)
  let q2 = Cq.make ~name:"QC" [ x ] [ Atom.make "Course" [ z; x; y ] ]

  let john = [ Value.str "John" ]
end

let test_under_ics_without_constraint () =
  let rho tid =
    Under_ics.responsibility Courses.instance Courses.schema ~ics:[] Courses.q
      ~answer:Courses.john (Tid.of_int tid)
  in
  check flt "ι1 counterfactual" 1.0 (rho 1);
  check flt "ι4 half" 0.5 (rho 4);
  check flt "ι8 half" 0.5 (rho 8);
  check flt "ι5 not a cause" 0.0 (rho 5)

let test_under_ics_with_psi () =
  let ics = [ Courses.psi ] in
  check Alcotest.bool "psi satisfied" true
    (Constraints.Violation.is_consistent Courses.instance Courses.schema ics);
  let rho tid =
    Under_ics.responsibility Courses.instance Courses.schema ~ics Courses.q
      ~answer:Courses.john (Tid.of_int tid)
  in
  check flt "ι1 still counterfactual" 1.0 (rho 1);
  check flt "ι4 no longer a cause" 0.0 (rho 4);
  check flt "ι8 no longer a cause" 0.0 (rho 8)

let test_under_ics_q2 () =
  (* Without ψ: ι4 and ι8 have ρ = 1/2; under ψ the contingency sets grow
     (must delete ι1 too) and ρ drops to 1/3. *)
  let rho ~ics tid =
    Under_ics.responsibility Courses.instance Courses.schema ~ics Courses.q2
      ~answer:Courses.john (Tid.of_int tid)
  in
  check flt "ι4 without psi" 0.5 (rho ~ics:[] 4);
  check flt "ι8 without psi" 0.5 (rho ~ics:[] 8);
  check flt "ι1 not a cause for Q2" 0.0 (rho ~ics:[] 1);
  let ics = [ Courses.psi ] in
  check flt "ι4 under psi" (1.0 /. 3.0) (rho ~ics 4);
  check flt "ι8 under psi" (1.0 /. 3.0) (rho ~ics 8);
  check flt "ι1 still not a cause" 0.0 (rho ~ics 1)

(* ASP-based causes = direct repair-based causes (B5 spot check via qcheck). *)
let schema_rs = Denial.schema

let arb_db =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 0 5) (pair (int_range 0 3) (int_range 0 3)))
        (list_size (int_range 0 4) (int_range 0 3)))
    ~print:(fun (rs, ss) ->
      Printf.sprintf "R=%s S=%s"
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) rs))
        (String.concat ";" (List.map string_of_int ss)))

let prop_asp_causes_agree =
  QCheck.Test.make ~count:40 ~name:"ASP causes = repair-connection causes"
    arb_db
    (fun (rs, ss) ->
      let label i = Value.str (Printf.sprintf "a%d" i) in
      let db =
        Instance.of_rows schema_rs
          [
            ("R", List.map (fun (a, b) -> [ label a; label b ]) rs);
            ("S", List.map (fun a -> [ label a ]) ss);
          ]
      in
      if not (Cq.holds Denial.q db) then true
      else
        let direct =
          Cause.actual_causes db schema_rs Denial.q
          |> List.map (fun c -> (Tid.to_int c.Cause.tid, c.Cause.responsibility))
        in
        let asp =
          Repair_programs.Cause_rules.responsibilities db schema_rs Denial.q
          |> List.map (fun (t, r) -> (Tid.to_int t, r))
        in
        direct = asp)

let suite =
  [
    Alcotest.test_case "causes and responsibilities (E11)" `Quick test_causes_ex71;
    Alcotest.test_case "counterfactual causes and MRACs" `Quick
      test_counterfactual_and_mrac;
    Alcotest.test_case "false query has no causes" `Quick test_false_query_no_causes;
    Alcotest.test_case "generic engine agrees" `Quick test_generic_agrees;
    Alcotest.test_case "attribute-level causes (E13)" `Quick test_attr_causes;
    Alcotest.test_case "causality without ICs (E14 part 1)" `Quick
      test_under_ics_without_constraint;
    Alcotest.test_case "causality under psi (E14 part 2)" `Quick
      test_under_ics_with_psi;
    Alcotest.test_case "Q2 responsibilities drop under psi (E14 part 3)" `Quick
      test_under_ics_q2;
    QCheck_alcotest.to_alcotest prop_asp_causes_agree;
  ]
