module Value = Relational.Value
module Instance = Relational.Instance
module Schema = Relational.Schema
open Logic
open Paper_examples

let check = Alcotest.check
let vrows = Alcotest.(list (list string))
let rows_to_strings rows = List.map (List.map Value.to_string) rows

(* E1 (Ex 2.1–2.2): residue rewriting of the item query under the IND. *)
let test_residue_ind () =
  let q =
    Cq.make [ Term.var "z" ]
      [ Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ] ]
  in
  let answers =
    Rewriting.Residue_rewrite.consistent_answers q Supply.schema [ Supply.ind ]
      Supply.instance
  in
  check vrows "consistent items" [ [ "I1" ]; [ "I2" ] ] (rows_to_strings answers)

(* E3 (Ex 3.3–3.4): residue rewriting of the full-tuple query under the key. *)
let test_residue_key_full_tuple () =
  let q =
    Cq.make [ Term.var "x"; Term.var "y" ]
      [ Atom.make "Employee" [ Term.var "x"; Term.var "y" ] ]
  in
  let answers =
    Rewriting.Residue_rewrite.consistent_answers q Employee.schema
      [ Employee.key ] Employee.instance
  in
  check vrows "smith and stowe"
    [ [ "smith"; "3" ]; [ "stowe"; "7" ] ]
    (rows_to_strings answers)

(* The projection query Q2(x): ∃y Employee(x,y) — residue rewriting is too
   strict here (drops page), which is exactly why Fuxman–Miller-style
   rewriting exists. *)
let q2 =
  Cq.make [ Term.var "x" ]
    [ Atom.make "Employee" [ Term.var "x"; Term.var "y" ] ]

let test_residue_projection_incomplete () =
  let answers =
    Rewriting.Residue_rewrite.consistent_answers q2 Employee.schema
      [ Employee.key ] Employee.instance
  in
  check vrows "residue rewriting misses page"
    [ [ "smith" ]; [ "stowe" ] ]
    (rows_to_strings answers)

let emp_keys = [ ("Employee", [ 0 ]) ]

let test_key_rewrite_projection () =
  match Rewriting.Key_rewrite.consistent_answers q2 ~keys:emp_keys Employee.instance with
  | None -> Alcotest.fail "Q2 is in the rewritable class"
  | Some answers ->
      check vrows "page is a consistent answer to Q2"
        [ [ "page" ]; [ "smith" ]; [ "stowe" ] ]
        (rows_to_strings answers)

let test_key_rewrite_full_tuple () =
  let q1 =
    Cq.make [ Term.var "x"; Term.var "y" ]
      [ Atom.make "Employee" [ Term.var "x"; Term.var "y" ] ]
  in
  match Rewriting.Key_rewrite.consistent_answers q1 ~keys:emp_keys Employee.instance with
  | None -> Alcotest.fail "Q1 is in the rewritable class"
  | Some answers ->
      check vrows "full tuples"
        [ [ "smith"; "3" ]; [ "stowe"; "7" ] ]
        (rows_to_strings answers)

(* Fuxman–Miller's canonical join: R(x,y) ⋈ S(y,z) with keys on the first
   attributes.  x is an answer iff in every repair some R-mate of x joins. *)
let join_schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]) ]
let join_keys = [ ("R", [ 0 ]); ("S", [ 0 ]) ]

let join_q =
  Cq.make [ Term.var "x" ]
    [
      Atom.make "R" [ Term.var "x"; Term.var "y" ];
      Atom.make "S" [ Term.var "y"; Term.var "z" ];
    ]

let test_key_rewrite_join () =
  let db =
    Instance.of_rows join_schema
      [
        ( "R",
          [
            (* a1 has conflicting R-tuples; only one of them joins S. *)
            [ v "a1"; v "b1" ];
            [ v "a1"; v "b2" ];
            (* a2's single tuple joins S. *)
            [ v "a2"; v "b3" ];
            (* a3 has conflicting tuples and both join S. *)
            [ v "a3"; v "b4" ];
            [ v "a3"; v "b5" ];
          ] );
        ( "S",
          [
            [ v "b1"; v "c1" ];
            [ v "b3"; v "c2" ];
            [ v "b4"; v "c3" ];
            [ v "b5"; v "c4" ];
          ] );
      ]
  in
  match Rewriting.Key_rewrite.consistent_answers join_q ~keys:join_keys db with
  | None -> Alcotest.fail "join query is in C-forest"
  | Some answers ->
      check vrows "a2 and a3 only"
        [ [ "a2" ]; [ "a3" ] ]
        (rows_to_strings answers)

let test_key_rewrite_rejects_self_join () =
  let q =
    Cq.make [ Term.var "x" ]
      [
        Atom.make "R" [ Term.var "x"; Term.var "y" ];
        Atom.make "R" [ Term.var "y"; Term.var "z" ];
      ]
  in
  check Alcotest.bool "self-join rejected" true
    (Rewriting.Key_rewrite.rewrite q ~keys:join_keys = None)

let test_key_rewrite_rejects_nonkey_join () =
  let q =
    Cq.make []
      [
        Atom.make "R" [ Term.var "x"; Term.var "y" ];
        Atom.make "S" [ Term.var "z"; Term.var "y" ];
      ]
  in
  check Alcotest.bool "non-key to non-key join rejected" true
    (Rewriting.Key_rewrite.rewrite q ~keys:join_keys = None)

let test_key_rewrite_constants () =
  let db =
    Instance.of_rows join_schema
      [ ("R", [ [ v "a1"; v "b1" ]; [ v "a1"; v "b2" ]; [ v "a2"; v "b1" ] ]) ]
  in
  (* Q(x): R(x,'b1') — consistent iff every key-mate carries b1. *)
  let q =
    Cq.make [ Term.var "x" ] [ Atom.make "R" [ Term.var "x"; Term.str "b1" ] ]
  in
  match Rewriting.Key_rewrite.consistent_answers q ~keys:join_keys db with
  | None -> Alcotest.fail "in class"
  | Some answers ->
      check vrows "only a2" [ [ "a2" ] ] (rows_to_strings answers)

(* Differential property: on random instances over one keyed relation, the
   Fuxman–Miller rewriting agrees with repair-enumeration CQA, for both the
   full-tuple query and the projection. *)
let schema_kv = Schema.of_list [ ("T", [ "k"; "v" ]) ]
let key_kv = Constraints.Ic.key ~rel:"T" [ 0 ]

let repair_cqa q db =
  let repairs = Repairs.S_repair.enumerate db schema_kv [ key_kv ] in
  match repairs with
  | [] -> []
  | first :: rest ->
      let module Rows = Set.Make (struct
        type t = Value.t list

        let compare = List.compare Value.compare
      end) in
      let answers r = Rows.of_list (Cq.answers q r.Repairs.Repair.repaired) in
      Rows.elements
        (List.fold_left (fun acc r -> Rows.inter acc (answers r)) (answers first) rest)

let gen_rows =
  QCheck.Gen.(list_size (int_range 1 7) (pair (int_range 0 3) (int_range 0 2)))

let arb_rows =
  QCheck.make gen_rows ~print:(fun rows ->
      String.concat ";" (List.map (fun (k, s) -> Printf.sprintf "%d,%d" k s) rows))

let instance_of rows =
  Instance.of_rows schema_kv
    [ ("T", List.map (fun (k, s) -> [ Value.int k; Value.int s ]) rows) ]

let prop_fm_agrees_with_repairs query =
  QCheck.Test.make ~count:100
    ~name:
      (Printf.sprintf "FM rewriting = repair CQA (%s)" query.Cq.name)
    arb_rows
    (fun rows ->
      let db = instance_of rows in
      match Rewriting.Key_rewrite.consistent_answers query ~keys:[ ("T", [ 0 ]) ] db with
      | None -> false
      | Some rewritten -> rewritten = repair_cqa query db)

let q_full =
  Cq.make ~name:"full" [ Term.var "x"; Term.var "y" ]
    [ Atom.make "T" [ Term.var "x"; Term.var "y" ] ]

let q_proj =
  Cq.make ~name:"proj" [ Term.var "x" ]
    [ Atom.make "T" [ Term.var "x"; Term.var "y" ] ]


(* --- residue rewritings on the columnar executor --------------------- *)

let scan_row = Obs.Counter.make "scan.row"

(* [f ()] with the number of interpreter runs ([scan.row]) it made. *)
let counting_scans f =
  let before = Obs.Counter.value scan_row in
  let r = f () in
  (r, Obs.Counter.value scan_row - before)

(* The residue rewriting of [q] answered by the compiled plan, checked
   against the interpreter; [scan.row] must stay 0. *)
let check_compiled name q schema ics inst expected =
  let f = Rewriting.Residue_rewrite.rewrite_ics q schema ics in
  let free = Cq.head_vars q in
  let answers, scans =
    counting_scans (fun () -> Formula.answers inst ~free f)
  in
  check vrows (name ^ ": answers") expected (rows_to_strings answers);
  check Alcotest.int (name ^ ": no interpreter run") 0 scans;
  check vrows (name ^ ": = interpreter") expected
    (rows_to_strings (Formula.interpret inst ~free f))

let test_residue_compiled_examples () =
  let module P = Workload.Paper in
  check_compiled "Employee full" P.Employee.full_query P.Employee.schema
    [ P.Employee.key ] P.Employee.instance
    [ [ "smith"; "3" ]; [ "stowe"; "7" ] ];
  check_compiled "Employee names" P.Employee.names_query P.Employee.schema
    [ P.Employee.key ] P.Employee.instance
    [ [ "smith" ]; [ "stowe" ] ];
  check_compiled "Customers, FDs" P.Customers.names_query P.Customers.schema
    [ P.Customers.fd1; P.Customers.fd2 ]
    P.Customers.instance
    [ [ "joe" ]; [ "mike" ]; [ "rick" ] ];
  check_compiled "Customers, FDs and CFD" P.Customers.names_query
    P.Customers.schema
    [ P.Customers.fd1; P.Customers.fd2; P.Customers.cfd ]
    P.Customers.instance [ [ "joe" ] ];
  check_compiled "kappa" P.Denial.q P.Denial.schema [ P.Denial.kappa ]
    P.Denial.instance [];
  let s_query =
    Cq.make ~name:"s" [ Term.var "x" ] [ Atom.make "S" [ Term.var "x" ] ]
  in
  check_compiled "kappa, S(x)" s_query P.Denial.schema [ P.Denial.kappa ]
    P.Denial.instance [ [ "a2" ] ]

(* Guard subtraction on the paper's examples: the rows a guard refutes
   are marked in a bitmap over the conjunction table's row ordinals and
   left out, for the key rewriting of the Employee queries (Ex 3.3;
   the projection needs no guard) and the residue rewriting of R(x, y)
   under κ (Ex 3.5).  The compiled answers are the paper's and the
   interpreter's. *)
let test_guard_subtraction_examples () =
  let module P = Workload.Paper in
  let case name f free inst expected =
    let answers, scans = counting_scans (fun () -> Formula.answers inst ~free f) in
    check vrows (name ^ ": answers") expected (rows_to_strings answers);
    check Alcotest.int (name ^ ": compiled") 0 scans;
    check vrows (name ^ ": = interpreter") expected
      (rows_to_strings (Formula.interpret inst ~free f))
  in
  let key_rewriting q =
    Option.get (Rewriting.Key_rewrite.rewrite q ~keys:[ ("Employee", [ 0 ]) ])
  in
  case "Employee full, key rewriting" (key_rewriting P.Employee.full_query)
    [ "x"; "y" ] P.Employee.instance
    [ [ "smith"; "3" ]; [ "stowe"; "7" ] ];
  case "Employee names, key rewriting" (key_rewriting P.Employee.names_query)
    [ "x" ] P.Employee.instance
    [ [ "page" ]; [ "smith" ]; [ "stowe" ] ];
  let r_query =
    Cq.make ~name:"r" [ Term.var "x"; Term.var "y" ]
      [ Atom.make "R" [ Term.var "x"; Term.var "y" ] ]
  in
  case "kappa, R(x, y)"
    (Rewriting.Residue_rewrite.rewrite_ics r_query P.Denial.schema [ P.Denial.kappa ])
    [ "x"; "y" ] P.Denial.instance
    [ [ "a2"; "a1" ] ]

(* κ's residue against R(x, y) quantifies no variable, [∀ (¬S(x) ∨ ¬S(y))],
   and reads two-valued: over NULLs in S and R it compiles, and a tuple
   with a NULL takes part in no definite violation, so it is kept — the
   repairs' answers. *)
let test_kappa_null_compiles () =
  let module P = Workload.Paper in
  let fact rel args = Relational.Fact.make rel args in
  let inst =
    List.fold_left Instance.add P.Denial.instance
      [
        fact "S" [ Value.Null ];
        fact "R" [ Value.str "a2"; Value.Null ];
        fact "R" [ Value.Null; Value.str "a4" ];
      ]
  in
  let eng =
    Cqa.Engine.create ~schema:P.Denial.schema ~ics:[ P.Denial.kappa ] inst
  in
  let r_query =
    Cq.make ~name:"r" [ Term.var "x"; Term.var "y" ]
      [ Atom.make "R" [ Term.var "x"; Term.var "y" ] ]
  in
  List.iter
    (fun (q : Cq.t) ->
      let f =
        Rewriting.Residue_rewrite.rewrite_ics q P.Denial.schema
          [ P.Denial.kappa ]
      in
      let answers, scans =
        counting_scans (fun () -> Formula.answers inst ~free:(Cq.head_vars q) f)
      in
      check Alcotest.int (q.name ^ ": compiled") 0 scans;
      check vrows (q.name ^ ": = enumeration")
        (rows_to_strings
           (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q))
        (rows_to_strings answers))
    [ P.Denial.q; r_query ];
  check vrows "NULL-carrying tuples kept"
    [ [ "NULL"; "a4" ]; [ "a2"; "NULL" ]; [ "a2"; "a1" ] ]
    (rows_to_strings
       (Rewriting.Residue_rewrite.consistent_answers r_query P.Denial.schema
          [ P.Denial.kappa ] inst))

(* [method=rewriting] through the server on the shipped example. *)
let test_rewriting_method_served () =
  let module P = Server.Protocol in
  let h = Server.Handler.create () in
  let payload =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../examples/employee.cqa"
    |> Fun.flip In_channel.with_open_text In_channel.input_all
    |> String.split_on_char '\n'
  in
  (match Server.Handler.dispatch h ~payload (P.Load "e") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  let query q =
    let r, scans =
      counting_scans (fun () ->
          Server.Handler.handle_line h ("QUERY e " ^ q ^ " method=rewriting"))
    in
    check Alcotest.int (q ^ ": no interpreter run") 0 scans;
    List.sort compare r.P.body
  in
  check Alcotest.(list string) "names" [ "smith"; "stowe" ] (query "names");
  check Alcotest.(list string) "salaries" [ "smith, 3000"; "stowe, 7000" ]
    (query "salaries");
  check Alcotest.(list string) "page_salary" [] (query "page_salary")

(* Residue rewriting on the plan = the interpreter = repair enumeration,
   on random keys and FDs plus at most one denial (with or without a
   constant), over instances with NULL cells.  The queries are full (no
   projection) and the denials join two relations, so every tuple alone
   is consistent: the class where the rewriting is complete.  Every
   residue — a constraint constant's [∀ (y ≠ 1 ∨ …)] and the bare
   [∀ ¬S(y, z)] too — reads two-valued, so a NULL drops no tuple that
   violates nothing, and every case compiles ([scan.row] stays 0). *)
let rschema = Schema.of_list [ ("R", [ "a"; "b"; "c" ]); ("S", [ "b"; "c" ]) ]

let prop_residue_compiled_exact =
  let value_of n = if n >= 3 then Value.Null else Value.int n in
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z"
  and w = Term.var "w" in
  let module Ic = Constraints.Ic in
  let deps =
    [|
      Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"R" [ 0; 1 ];
      Ic.fd ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 2 ];
      Ic.fd ~rel:"R" ~lhs:[ 2 ] ~rhs:[ 0 ];
      Ic.key ~rel:"S" [ 0 ]; Ic.fd ~rel:"S" ~lhs:[ 1 ] ~rhs:[ 0 ];
    |]
  in
  let denials =
    [|
      Ic.denial ~name:"rs" [ Atom.make "R" [ x; y; z ]; Atom.make "S" [ y; w ] ];
      Ic.denial ~name:"lt" ~comps:[ Cmp.make Cmp.Lt x w ]
        [ Atom.make "R" [ x; y; z ]; Atom.make "S" [ z; w ] ];
      Ic.denial ~name:"neq" ~comps:[ Cmp.make Cmp.Neq z w ]
        [ Atom.make "R" [ x; y; z ]; Atom.make "S" [ y; w ] ];
      Ic.denial ~name:"const"
        [ Atom.make "R" [ x; Term.int 1; z ]; Atom.make "S" [ z; w ] ];
      Ic.denial ~name:"bare" [ Atom.make "R" [ x; y; z ]; Atom.make "S" [ y; z ] ];
    |]
  in
  let queries =
    [
      Cq.make ~name:"r" [ x; y; z ] [ Atom.make "R" [ x; y; z ] ];
      Cq.make ~name:"s" [ y; w ] [ Atom.make "S" [ y; w ] ];
      Cq.make ~name:"rs" [ x; y; z; w ]
        [ Atom.make "R" [ x; y; z ]; Atom.make "S" [ z; w ] ];
      Cq.make ~name:"r1" [ y; z ] [ Atom.make "R" [ Term.int 1; y; z ] ];
    ]
  in
  let gen =
    QCheck.Gen.(
      quad
        (list_size (int_range 0 6)
           (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
        (list_size (int_range 0 4) (pair (int_range 0 3) (int_range 0 3)))
        (list_size (int_range 0 3) (int_range 0 (Array.length deps - 1)))
        (opt (int_range 0 (Array.length denials - 1))))
  in
  let print (rs, ss, ds, d) =
    Printf.sprintf "R=%s S=%s deps=%s denial=%s"
      (String.concat ";"
         (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) rs))
      (String.concat ";"
         (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) ss))
      (String.concat "," (List.map string_of_int ds))
      (match d with Some d -> string_of_int d | None -> "-")
  in
  QCheck.Test.make ~count:300
    ~name:"residue rewriting: plan = interpreter = repairs"
    (QCheck.make ~print gen) (fun (rs, ss, ds, d) ->
      let inst =
        Instance.of_rows rschema
          [
            ("R", List.map (fun (a, b, c) -> List.map value_of [ a; b; c ]) rs);
            ("S", List.map (fun (b, c) -> List.map value_of [ b; c ]) ss);
          ]
      in
      let ics =
        List.map (fun i -> deps.(i)) ds
        @ Option.to_list (Option.map (fun i -> denials.(i)) d)
      in
      let eng = Cqa.Engine.create ~schema:rschema ~ics inst in
      List.for_all
        (fun q ->
          let f = Rewriting.Residue_rewrite.rewrite_ics q rschema ics in
          let free = Cq.head_vars q in
          let compiled, scans =
            counting_scans (fun () -> Formula.answers inst ~free f)
          in
          let sort = List.sort compare in
          let repairs =
            Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q
          in
          sort compiled = sort (Formula.interpret inst ~free f)
          && sort compiled = sort repairs
          && scans = 0)
        queries)

let suite =
  [
    Alcotest.test_case "residue rewriting: IND (E1)" `Quick test_residue_ind;
    Alcotest.test_case "residue rewriting: key, full tuple (E3)" `Quick
      test_residue_key_full_tuple;
    Alcotest.test_case "residue rewriting incomplete on projection" `Quick
      test_residue_projection_incomplete;
    Alcotest.test_case "FM rewriting: projection keeps page" `Quick
      test_key_rewrite_projection;
    Alcotest.test_case "FM rewriting: full tuple" `Quick test_key_rewrite_full_tuple;
    Alcotest.test_case "FM rewriting: key join" `Quick test_key_rewrite_join;
    Alcotest.test_case "FM rejects self-joins" `Quick test_key_rewrite_rejects_self_join;
    Alcotest.test_case "FM rejects non-key joins" `Quick
      test_key_rewrite_rejects_nonkey_join;
    Alcotest.test_case "FM rewriting with constants" `Quick test_key_rewrite_constants;
    QCheck_alcotest.to_alcotest (prop_fm_agrees_with_repairs q_full);
    QCheck_alcotest.to_alcotest (prop_fm_agrees_with_repairs q_proj);
    Alcotest.test_case "residue rewriting compiles the paper's examples" `Quick
      test_residue_compiled_examples;
    Alcotest.test_case "guard subtraction on the paper's examples" `Quick
      test_guard_subtraction_examples;
    Alcotest.test_case
      "residue rewriting: kappa over NULL compiles and agrees with enumeration"
      `Quick test_kappa_null_compiles;
    Alcotest.test_case "residue rewriting served: method=rewriting" `Quick
      test_rewriting_method_served;
    QCheck_alcotest.to_alcotest prop_residue_compiled_exact;
  ]
