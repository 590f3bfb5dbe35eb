module Value = Relational.Value
module Instance = Relational.Instance
module Tvl = Relational.Tvl
open Logic

let check = Alcotest.check
let vrows = Alcotest.(list (list string))

let rows_to_strings rows = List.map (List.map Value.to_string) rows

let supply = Paper_examples.Supply.instance

let test_cq_projection () =
  (* Q(z): ∃x∃y Supply(x,y,z) — Example 2.1's query against the dirty db. *)
  let q =
    Cq.make [ Term.var "z" ]
      [ Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ] ]
  in
  check vrows "all three items"
    [ [ "I1" ]; [ "I2" ]; [ "I3" ] ]
    (rows_to_strings (Cq.answers q supply))

let test_cq_join_and_rewriting () =
  (* Q'(z): ∃x∃y (Supply(x,y,z) ∧ Articles(z)) — the rewritten query (4)
     returns the consistent answers from the inconsistent db. *)
  let q =
    Cq.make [ Term.var "z" ]
      [
        Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ];
        Atom.make "Articles" [ Term.var "z" ];
      ]
  in
  check vrows "I1 and I2 only"
    [ [ "I1" ]; [ "I2" ] ]
    (rows_to_strings (Cq.answers q supply))

let test_cq_comparisons () =
  let emp = Paper_examples.Employee.instance in
  let q =
    Cq.make
      ~comps:[ Cmp.make Cmp.Gt (Term.var "s") (Term.int 4) ]
      [ Term.var "n" ]
      [ Atom.make "Employee" [ Term.var "n"; Term.var "s" ] ]
  in
  check vrows "salaries above 4" [ [ "page" ]; [ "stowe" ] ]
    (rows_to_strings (Cq.answers q emp))

let test_cq_boolean () =
  let q = Paper_examples.Denial.q in
  check Alcotest.bool "kappa's query holds" true
    (Cq.holds q Paper_examples.Denial.instance)

let test_cq_null_join () =
  let schema =
    Relational.Schema.of_list [ ("P", [ "k" ]); ("Q", [ "k" ]) ]
  in
  let db =
    Instance.of_rows schema
      [ ("P", [ [ Value.Null ] ]); ("Q", [ [ Value.Null ] ]) ]
  in
  let q =
    Cq.make [] [ Atom.make "P" [ Term.var "x" ]; Atom.make "Q" [ Term.var "x" ] ]
  in
  check Alcotest.bool "NULL does not join" false (Cq.holds q db);
  let single = Cq.make [] [ Atom.make "P" [ Term.var "x" ] ] in
  check Alcotest.bool "single occurrence matches NULL" true (Cq.holds single db)

let test_unify () =
  let a = Atom.make "R" [ Term.var "x"; Term.str "c" ] in
  let b = Atom.make "R" [ Term.str "d"; Term.var "y" ] in
  (match Unify.atoms a b with
  | None -> Alcotest.fail "should unify"
  | Some s ->
      check Alcotest.bool "x bound to d" true
        (Term.equal (Subst.apply_term s (Term.var "x")) (Term.str "d"));
      check Alcotest.bool "y bound to c" true
        (Term.equal (Subst.apply_term s (Term.var "y")) (Term.str "c")));
  let c = Atom.make "R" [ Term.str "e"; Term.var "y" ] in
  check Alcotest.bool "clashing constants do not unify" true
    (Unify.atoms b c = None);
  let d = Atom.make "R" [ Term.var "x"; Term.var "x" ] in
  let e = Atom.make "R" [ Term.str "u"; Term.str "w" ] in
  check Alcotest.bool "x cannot be both" true (Unify.atoms d e = None)

let test_formula_eval_rewritten_query () =
  (* Example 3.4's rewriting (6): Employee(x,y) ∧ ¬∃z (Employee(x,z) ∧ z≠y).
     Its classical answers from the dirty instance are the consistent
     answers. *)
  let emp = Paper_examples.Employee.instance in
  let f =
    Formula.And
      ( Formula.Atom (Atom.make "Employee" [ Term.var "x"; Term.var "y" ]),
        Formula.Not
          (Formula.Exists
             ( [ "z" ],
               Formula.And
                 ( Formula.Atom (Atom.make "Employee" [ Term.var "x"; Term.var "z" ]),
                   Formula.Cmp (Cmp.neq (Term.var "z") (Term.var "y")) ) )) )
  in
  let rows = Formula.answers emp ~free:[ "x"; "y" ] f in
  check vrows "smith and stowe survive"
    [ [ "smith"; "3" ]; [ "stowe"; "7" ] ]
    (rows_to_strings rows)

let test_formula_quantifiers () =
  let emp = Paper_examples.Employee.instance in
  let all_have_salary =
    Formula.Forall
      ( [ "x"; "y" ],
        Formula.Implies
          ( Formula.Atom (Atom.make "Employee" [ Term.var "x"; Term.var "y" ]),
            Formula.Exists
              ( [ "z" ],
                Formula.Atom (Atom.make "Employee" [ Term.var "x"; Term.var "z" ]) ) ) )
  in
  check Alcotest.bool "trivial forall holds" true (Formula.holds emp all_have_salary);
  let somebody_earns_9 =
    Formula.Exists
      ( [ "x" ],
        Formula.Atom (Atom.make "Employee" [ Term.var "x"; Term.int 9 ]) )
  in
  check Alcotest.bool "nobody earns 9" false (Formula.holds emp somebody_earns_9)

let test_formula_nnf () =
  let f =
    Formula.Not
      (Formula.Or
         ( Formula.Atom (Atom.make "R" [ Term.var "x" ]),
           Formula.Not (Formula.Cmp (Cmp.eq (Term.var "x") (Term.int 1))) ))
  in
  match Formula.nnf f with
  | Formula.And (Formula.Not (Formula.Atom _), Formula.Cmp c) ->
      check Alcotest.bool "negation absorbed into comparison" true
        (c.Cmp.op = Cmp.Eq)
  | _ -> Alcotest.fail "unexpected NNF shape"

let test_clause_and_residue_ind () =
  (* Example 2.2: residue of ID against the Supply atom is Articles(z). *)
  let clause =
    Clause.make
      [
        Clause.Neg (Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ]);
        Clause.Pos (Atom.make "Articles" [ Term.var "z" ]);
      ]
  in
  let atom = Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ] in
  match Residue.of_clause atom clause with
  | [ Formula.Forall ([], Formula.Atom a) ] ->
      check Alcotest.string "residue Articles(z)" "Articles" a.Atom.rel
  | _ -> Alcotest.fail "expected single positive residue"

let test_clause_and_residue_key () =
  (* Example 3.4: residue of the key clause against Employee(x,y). *)
  let clause =
    Clause.make
      [
        Clause.Neg (Atom.make "Employee" [ Term.var "x"; Term.var "y" ]);
        Clause.Neg (Atom.make "Employee" [ Term.var "x"; Term.var "z" ]);
        Clause.Builtin (Cmp.eq (Term.var "y") (Term.var "z"));
      ]
  in
  let atom = Atom.make "Employee" [ Term.var "x"; Term.var "y" ] in
  let residues = Residue.of_clause atom clause in
  check Alcotest.int "two unifiable negative literals" 2 (List.length residues);
  (* Each residue, conjoined with the atom, must yield the consistent
     answers on the dirty Employee instance. *)
  let emp = Paper_examples.Employee.instance in
  List.iter
    (fun r ->
      let q = Formula.And (Formula.Atom atom, r) in
      let rows = Formula.answers emp ~free:[ "x"; "y" ] q in
      check vrows "consistent answers"
        [ [ "smith"; "3" ]; [ "stowe"; "7" ] ]
        (rows_to_strings rows))
    residues

let test_clause_holds () =
  let clause =
    Clause.make
      [
        Clause.Neg (Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ]);
        Clause.Pos (Atom.make "Articles" [ Term.var "z" ]);
      ]
  in
  check Alcotest.bool "ID violated on dirty db" false (Clause.holds supply clause)

let test_ucq () =
  let q1 =
    Cq.make [ Term.var "z" ]
      [ Atom.make "Articles" [ Term.var "z" ] ]
  in
  let q2 =
    Cq.make [ Term.var "z" ]
      [ Atom.make "Supply" [ Term.var "x"; Term.var "y"; Term.var "z" ] ]
  in
  let u = Ucq.make [ q1; q2 ] in
  check Alcotest.int "union of items" 3 (List.length (Ucq.answers u supply));
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Ucq.make: arity mismatch")
    (fun () -> ignore (Ucq.make [ q1; Cq.make [] [] ]))

let suite =
  [
    Alcotest.test_case "CQ projection" `Quick test_cq_projection;
    Alcotest.test_case "CQ join (rewritten query (4))" `Quick test_cq_join_and_rewriting;
    Alcotest.test_case "CQ comparisons" `Quick test_cq_comparisons;
    Alcotest.test_case "Boolean CQ" `Quick test_cq_boolean;
    Alcotest.test_case "NULL join semantics in CQs" `Quick test_cq_null_join;
    Alcotest.test_case "unification" `Quick test_unify;
    Alcotest.test_case "formula eval: rewritten key query (6)" `Quick
      test_formula_eval_rewritten_query;
    Alcotest.test_case "formula quantifiers" `Quick test_formula_quantifiers;
    Alcotest.test_case "NNF" `Quick test_formula_nnf;
    Alcotest.test_case "residue: inclusion dependency (Ex 2.2)" `Quick
      test_clause_and_residue_ind;
    Alcotest.test_case "residue: key constraint (Ex 3.4)" `Quick
      test_clause_and_residue_key;
    Alcotest.test_case "clause satisfaction" `Quick test_clause_holds;
    Alcotest.test_case "UCQ evaluation" `Quick test_ucq;
  ]
