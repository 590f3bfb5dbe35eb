(* Clausal forms from formulas, UCQ engines, SAT differential testing. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module P = Workload.Paper
open Logic

let check = Alcotest.check
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"

(* --- Clause.of_formula / Ic.of_formula --- *)

let test_clause_of_formula_key () =
  (* ∀x,y,z (E(x,y) ∧ E(x,z) → y = z) — the key sentence of Example 3.4. *)
  let f =
    Formula.forall [ "x"; "y"; "z" ]
      (Formula.Implies
         ( Formula.And
             ( Formula.Atom (Atom.make "Employee" [ x; y ]),
               Formula.Atom (Atom.make "Employee" [ x; z ]) ),
           Formula.Cmp (Cmp.eq y z) ))
  in
  match Clause.of_formula f with
  | Some [ c ] ->
      check Alcotest.int "three literals" 3 (List.length c.Clause.literals);
      (* The clause must agree with the formula on the dirty instance. *)
      check Alcotest.bool "clause violated like the formula" false
        (Clause.holds P.Employee.instance c);
      check Alcotest.bool "formula violated" false
        (Formula.holds P.Employee.instance f)
  | _ -> Alcotest.fail "expected a single clause"

let test_clause_of_formula_conjunction () =
  (* A conjunction of two denials yields two clauses. *)
  let d1 = Formula.Not (Formula.Exists ([ "x" ], Formula.Atom (Atom.make "A" [ x ]))) in
  let d2 =
    Formula.Not
      (Formula.Exists
         ( [ "x" ],
           Formula.And
             (Formula.Atom (Atom.make "B" [ x ]), Formula.Atom (Atom.make "C" [ x ]))
         ))
  in
  match Clause.of_formula (Formula.And (d1, d2)) with
  | Some cs -> check Alcotest.int "two clauses" 2 (List.length cs)
  | None -> Alcotest.fail "clausal form exists"

let test_clause_of_formula_rejects_existential () =
  (* ∀x (R(x) → ∃y S(x,y)) has no clausal form over the schema. *)
  let f =
    Formula.forall [ "x" ]
      (Formula.Implies
         ( Formula.Atom (Atom.make "R" [ x ]),
           Formula.Exists ([ "y" ], Formula.Atom (Atom.make "S" [ x; y ])) ))
  in
  check Alcotest.bool "no clausal form" true (Clause.of_formula f = None)

let test_clause_roundtrip () =
  (* to_formula then of_formula recovers the clause. *)
  let c =
    Clause.make
      [
        Clause.Neg (Atom.make "S" [ x ]);
        Clause.Pos (Atom.make "T" [ x ]);
        Clause.Builtin (Cmp.neq x (Term.int 0));
      ]
  in
  match Clause.of_formula (Clause.to_formula c) with
  | Some [ c' ] ->
      check Alcotest.int "same literal count" 3 (List.length c'.Clause.literals)
  | _ -> Alcotest.fail "roundtrip failed"

let test_ic_of_formula () =
  (* The κ sentence becomes a single denial equivalent to the original. *)
  let f =
    Formula.Not
      (Formula.Exists
         ( [ "x"; "y" ],
           Formula.conj
             [
               Formula.Atom (Atom.make "S" [ x ]);
               Formula.Atom (Atom.make "R" [ x; y ]);
               Formula.Atom (Atom.make "S" [ y ]);
             ] ))
  in
  match Constraints.Ic.of_formula ~name:"kappa_f" f with
  | Some [ ic ] ->
      check Alcotest.bool "violated like kappa" false
        (Constraints.Violation.is_consistent P.Denial.instance P.Denial.schema
           [ ic ]);
      let repairs =
        Repairs.S_repair.enumerate P.Denial.instance P.Denial.schema [ ic ]
      in
      check Alcotest.int "same three repairs" 3 (List.length repairs)
  | _ -> Alcotest.fail "expected one denial"

let test_ic_of_formula_rejects_generating () =
  let f =
    Formula.forall [ "x" ]
      (Formula.Implies
         ( Formula.Atom (Atom.make "R" [ x ]),
           Formula.Atom (Atom.make "S" [ x ]) ))
  in
  check Alcotest.bool "generating dependency rejected" true
    (Constraints.Ic.of_formula f = None)

(* --- UCQ consistent answers --- *)

let test_ucq_engine () =
  (* Names employed, or anyone earning over 6 — over the dirty Employee. *)
  let q1 =
    Cq.make ~name:"names" [ x ] [ Atom.make "Employee" [ x; y ] ]
  in
  let q2 =
    Cq.make ~name:"rich" ~comps:[ Cmp.make Cmp.Gt y (Term.int 6) ] [ x ]
      [ Atom.make "Employee" [ x; y ] ]
  in
  let u = Ucq.make [ q1; q2 ] in
  let eng =
    Cqa.Engine.create ~schema:P.Employee.schema ~ics:[ P.Employee.key ]
      P.Employee.instance
  in
  let enum = Cqa.Engine.consistent_answers_ucq eng u in
  let asp = Cqa.Engine.consistent_answers_ucq ~method_:`Asp eng u in
  check
    Alcotest.(list (list string))
    "all three names"
    [ [ "page" ]; [ "smith" ]; [ "stowe" ] ]
    (List.map (List.map Value.to_string) enum);
  check Alcotest.bool "ASP agrees" true (enum = asp)

let test_ucq_gains_over_cq () =
  (* Ex 3.3 flavour: "page earns 5 or page earns 8" is certain as a UCQ
     even though neither disjunct is. *)
  let earns s =
    Cq.make ~name:(Printf.sprintf "earns%d" s) []
      [ Atom.make "Employee" [ Term.str "page"; Term.int s ] ]
  in
  let u = Ucq.make [ earns 5; earns 8 ] in
  let eng =
    Cqa.Engine.create ~schema:P.Employee.schema ~ics:[ P.Employee.key ]
      P.Employee.instance
  in
  (* Boolean UCQ: certain iff the empty tuple is an answer. *)
  check Alcotest.int "disjunction certain" 1
    (List.length (Cqa.Engine.consistent_answers_ucq eng u));
  let single_eng_answer q =
    List.length
      (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
  in
  check Alcotest.int "earns5 alone uncertain" 0 (single_eng_answer (earns 5));
  check Alcotest.int "earns8 alone uncertain" 0 (single_eng_answer (earns 8))

(* --- SAT differential vs brute force --- *)

let satisfies clauses assignment =
  List.for_all
    (fun clause ->
      List.exists
        (fun lit ->
          let v = abs lit in
          if lit > 0 then assignment.(v) else not assignment.(v))
        clause)
    clauses

let brute_force_models nvars clauses =
  let models = ref [] in
  for mask = 0 to (1 lsl nvars) - 1 do
    let assignment = Array.make (nvars + 1) false in
    for v = 1 to nvars do
      assignment.(v) <- mask land (1 lsl (v - 1)) <> 0
    done;
    if satisfies clauses assignment then models := assignment :: !models
  done;
  !models

(* The least number of [soft] variables true in a brute-force model;
   [max_int] when there is none. *)
let brute_force_minimum nvars soft clauses =
  brute_force_models nvars clauses
  |> List.map (fun m -> List.length (List.filter (fun v -> m.(v)) soft))
  |> List.fold_left min max_int

let gen_lit =
  QCheck.Gen.(map (fun (v, s) -> if s then v else -v) (pair (int_range 1 5) bool))

let print_clause c = "(" ^ String.concat "|" (List.map string_of_int c) ^ ")"

let arb_cnf =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 8) (list_size (int_range 1 3) gen_lit))
    ~print:(fun clauses -> String.concat " & " (List.map print_clause clauses))

let solver_of clauses =
  let s = Sat.Dpll.create () in
  Sat.Dpll.reserve s 5;
  List.iter (Sat.Dpll.add_clause_list s) clauses;
  s

let prop_sat_differential =
  QCheck.Test.make ~count:200 ~name:"DPLL model count = brute force" arb_cnf
    (fun clauses ->
      Sat.Dpll.count (solver_of clauses)
      = List.length (brute_force_models 5 clauses))

let prop_sat_minimize_differential =
  QCheck.Test.make ~count:200 ~name:"DPLL minimize = brute force minimum"
    arb_cnf
    (fun clauses ->
      let soft = [ 1; 2; 3; 4; 5 ] in
      let brute = brute_force_minimum 5 soft clauses in
      match Sat.Dpll.minimize ~soft (solver_of clauses) with
      | None -> brute = max_int
      | Some (cost, _) -> cost = brute)

(* One persistent solver driven by a script of clause additions,
   removals, marks, rollbacks and checks.  At every check, solve,
   enumerate, count and minimize (under the check's assumptions) must
   agree with brute force over the clauses live at that point: those
   added since the last surviving mark was taken, plus those under it,
   less those removed (a rollback does not bring a removed clause
   back).  Solves refuted under assumptions leave learned clauses
   behind, and rollbacks take them back with the rest; a removal while
   one is held must be refused. *)
let arb_solver_script =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun c -> `Add c) (list_size (int_range 1 3) gen_lit));
        (1, return (`Add []));
        (2, return `Mark);
        (2, return `Rollback);
        (2, map (fun i -> `Remove i) (int_range 0 15));
        (3, map (fun a -> `Check a) (list_size (int_range 0 2) gen_lit));
      ]
  in
  QCheck.make
    (list_size (int_range 0 16) op)
    ~print:(fun ops ->
      String.concat " ; "
        (List.map
           (function
             | `Add c -> "add " ^ print_clause c
             | `Mark -> "mark"
             | `Rollback -> "rollback"
             | `Remove i -> "remove #" ^ string_of_int i
             | `Check a -> "check " ^ print_clause a)
           ops))

let prop_sat_persistent_solver =
  QCheck.Test.make ~count:300
    ~name:"DPLL drivers on a rolled-back solver = brute force"
    arb_solver_script
    (fun ops ->
      let s = solver_of [] in
      let soft = [ 1; 2; 3; 4; 5 ] in
      let agrees live assumptions =
        let constraints = live @ List.map (fun l -> [ l ]) assumptions in
        let brute = brute_force_models 5 constraints in
        (match Sat.Dpll.solve ~assumptions s with
        | None -> brute = []
        | Some m -> satisfies constraints m)
        && (let models = Sat.Dpll.enumerate ~assumptions s in
            List.length models = List.length brute
            && List.for_all (satisfies constraints) models)
        && Sat.Dpll.count ~assumptions s = List.length brute
        &&
        match Sat.Dpll.minimize ~assumptions ~soft s with
        | None -> brute = []
        | Some (cost, m) ->
            cost = brute_force_minimum 5 soft constraints
            && satisfies constraints m
      in
      (* [live]: (clause index, clause), the index -1 for the empty
         clause, which takes none.  [removed]: indices removed so far. *)
      let removed = ref [] in
      let rec run live marks = function
        | [] -> agrees (List.map snd live) []
        | `Add c :: ops ->
            let ci = if c = [] then -1 else Sat.Dpll.nclauses s in
            Sat.Dpll.add_clause_list s c;
            run ((ci, c) :: live) marks ops
        | `Remove i :: ops -> (
            match List.filter (fun (ci, _) -> ci >= 0) live with
            | [] -> run live marks ops
            | held when Sat.Dpll.learned_clauses s > 0 ->
                (match Sat.Dpll.remove_clause s (fst (List.hd held)) with
                | () -> false
                | exception Invalid_argument _ -> true)
                && run live marks ops
            | held ->
                let ci, _ = List.nth held (i mod List.length held) in
                Sat.Dpll.remove_clause s ci;
                removed := ci :: !removed;
                run (List.filter (fun (cj, _) -> cj <> ci) live) marks ops)
        | `Mark :: ops -> run live ((Sat.Dpll.mark s, live) :: marks) ops
        | `Rollback :: ops -> (
            match marks with
            | [] -> run live marks ops
            | (m, live') :: marks ->
                Sat.Dpll.rollback s m;
                (* Slots past the mark are free again. *)
                removed :=
                  List.filter (fun ci -> ci < Sat.Dpll.nclauses s) !removed;
                run
                  (List.filter (fun (ci, _) -> not (List.mem ci !removed)) live')
                  marks ops)
        | `Check a :: ops ->
            let indexed =
              List.filter_map
                (fun (ci, c) -> if ci >= 0 then Some c else None)
                live
            in
            agrees (List.map snd live) a
            && (Sat.Dpll.learned_clauses s > 0
               || Sat.Dpll.clauses s = List.rev indexed)
            && run live marks ops
      in
      run [] [] ops)

let suite =
  [
    Alcotest.test_case "clause of key sentence" `Quick test_clause_of_formula_key;
    Alcotest.test_case "clauses of a conjunction" `Quick
      test_clause_of_formula_conjunction;
    Alcotest.test_case "existential formulas rejected" `Quick
      test_clause_of_formula_rejects_existential;
    Alcotest.test_case "clause round trip" `Quick test_clause_roundtrip;
    Alcotest.test_case "Ic.of_formula builds working denials" `Quick
      test_ic_of_formula;
    Alcotest.test_case "Ic.of_formula rejects generating deps" `Quick
      test_ic_of_formula_rejects_generating;
    Alcotest.test_case "UCQ consistent answers" `Quick test_ucq_engine;
    Alcotest.test_case "UCQs gain over single CQs" `Quick test_ucq_gains_over_cq;
    QCheck_alcotest.to_alcotest prop_sat_differential;
    QCheck_alcotest.to_alcotest prop_sat_minimize_differential;
    QCheck_alcotest.to_alcotest prop_sat_persistent_solver;
  ]
