(* The cqa-sat vertical: the incremental DPLL interface, the CAvSAT
   repair theory and certainty pipeline, engine dispatch to the
   sat_compilation route, and the SAT ≡ enumeration equivalence on
   random inconsistent instances. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Ic = Constraints.Ic
module Dpll = Sat.Dpll
open Logic

let check = Alcotest.check
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"

let rows = Alcotest.(list (list string))
let strings_of = List.map (List.map Value.to_string)

(* ---- Dpll: the persistent solver ----------------------------------- *)

let test_incremental_basic () =
  let s = Dpll.create () in
  Dpll.add_clause s [| 1; 2 |];
  Dpll.add_clause s [| -1; 2 |];
  check Alcotest.bool "sat" true (Dpll.satisfiable s);
  (* Growing the formula between calls is visible to the next call. *)
  Dpll.add_clause s [| -2 |];
  check Alcotest.bool "now unsat" false (Dpll.satisfiable s);
  (* Root-level unsatisfiability is permanent. *)
  check Alcotest.bool "still unsat" false (Dpll.satisfiable s)

let test_incremental_assumptions () =
  let s = Dpll.create () in
  let a = Dpll.fresh_var s and b = Dpll.fresh_var s in
  Dpll.add_clause s [| -a; b |];
  Dpll.add_clause s [| -b |];
  check Alcotest.bool "free: sat" true (Dpll.satisfiable s);
  check Alcotest.int "no learned clauses yet" 0 (Dpll.learned_clauses s);
  (* Assuming a forces b, contradicting ¬b: unsat under the assumption,
     and the refutation ¬a is retained. *)
  check Alcotest.bool "under a: unsat" false (Dpll.satisfiable ~assumptions:[ a ] s);
  check Alcotest.int "refutation retained" 1 (Dpll.learned_clauses s);
  (match Dpll.solve s with
  | None -> Alcotest.fail "formula itself is satisfiable"
  | Some m -> check Alcotest.bool "learned unit forces a false" false m.(a));
  (* The solver stays reusable after an unsat call. *)
  check Alcotest.bool "still sat free" true (Dpll.satisfiable s)

let test_incremental_empty_clause () =
  let s = Dpll.create () in
  Dpll.add_clause s [| 1 |];
  Dpll.add_clause s [||];
  check Alcotest.bool "empty clause: unsat" false (Dpll.satisfiable s)

let test_incremental_many_selectors () =
  (* The cavsat usage pattern: a fixed theory, then one selector per
     probe, each retired after its call. *)
  let s = Dpll.create () in
  let v1 = Dpll.fresh_var s and v2 = Dpll.fresh_var s in
  Dpll.add_clause s [| v1; v2 |];
  Dpll.add_clause s [| -v1; -v2 |];
  for _ = 1 to 20 do
    let sel = Dpll.fresh_var s in
    Dpll.add_clause s [| -sel; v1 |];
    Dpll.add_clause s [| -sel; v2 |];
    (match Dpll.solve ~assumptions:[ sel ] s with
    | Some _ -> Alcotest.fail "selector forces v1∧v2 against ¬(v1∧v2)"
    | None -> ());
    check Alcotest.bool "theory survives probe" true (Dpll.satisfiable s)
  done;
  check Alcotest.int "twenty refutations retained" 20 (Dpll.learned_clauses s)

let test_incremental_rollback () =
  let s = Dpll.create () in
  let a = Dpll.fresh_var s and b = Dpll.fresh_var s in
  Dpll.add_clause s [| a; b |];
  let m = Dpll.mark s in
  let sel = Dpll.fresh_var s in
  Dpll.add_clause s [| -sel; -a; -a |];
  Dpll.add_clause s [| -sel; -b |];
  check Alcotest.bool "selector refuted" false
    (Dpll.satisfiable ~assumptions:[ sel ] s);
  check Alcotest.int "refutation retained" 1 (Dpll.learned_clauses s);
  Dpll.add_clause s [||];
  check Alcotest.bool "root unsat" false (Dpll.satisfiable s);
  Dpll.rollback s m;
  check Alcotest.int "vars back to the mark" 2 (Dpll.nvars s);
  check Alcotest.int "clauses back to the mark" 1 (Dpll.nclauses s);
  check Alcotest.int "learned back to the mark" 0 (Dpll.learned_clauses s);
  check Alcotest.bool "root unsat undone" true (Dpll.satisfiable s);
  (* The occurrence lists were unwound too: a selector reusing the
     released variable propagates against the base formula only. *)
  let sel' = Dpll.fresh_var s in
  check Alcotest.int "variable number reused" sel sel';
  Dpll.add_clause s [| -sel'; -a |];
  (match Dpll.solve ~assumptions:[ sel' ] s with
  | None -> Alcotest.fail "only the new selector clause constrains a"
  | Some m -> check Alcotest.bool "a dropped, b kept" true ((not m.(a)) && m.(b)));
  Dpll.rollback s m;
  check Alcotest.int "second rollback" 1 (Dpll.nclauses s);
  Alcotest.check_raises "mark past the solver"
    (Invalid_argument "Dpll.rollback: mark is newer than the solver")
    (fun () ->
      let s' = Dpll.create () in
      Dpll.rollback s' m)

(* A deadline raised inside the search must leave the shared assignment
   blank.  (v1 ∨ v2) ∧ (v3 ∨ v4) ∧ ...: the search decides odd variables
   false first, so a search cut short after its first decision would
   leave v1 false and refute the assumption v1 on the next call.  The
   clock advances one second per read and every tick reads it, so the
   budgets sweep the cut across every decision. *)
let test_incremental_deadline_leaves_solver_blank () =
  let prev = Obs.Progress.check_interval () in
  Obs.Progress.set_check_interval 1;
  Fun.protect ~finally:(fun () -> Obs.Progress.set_check_interval prev)
  @@ fun () ->
  let cut = ref 0 in
  for budget = 0 to 10 do
    let s = Dpll.create () in
    for i = 0 to 5 do
      Dpll.add_clause s [| (2 * i) + 1; (2 * i) + 2 |]
    done;
    let now = ref 0.0 in
    let clock () =
      now := !now +. 1.0;
      !now
    in
    let c =
      Obs.Progress.create ~deadline_s:(float budget +. 0.5) ~clock
        ~label:"solve" ~id:0 ()
    in
    (match Obs.Progress.run c (fun () -> Dpll.solve s) with
    | _ -> ()
    | exception Obs.Progress.Deadline_exceeded -> incr cut);
    check Alcotest.bool
      (Printf.sprintf "blank after budget %d" budget)
      true
      (Dpll.satisfiable ~assumptions:[ 1; 3; 5; 7; 9; 11 ] s)
  done;
  check Alcotest.bool "the sweep cut solves mid-search" true (!cut > 2)

(* ---- Theory ---------------------------------------------------------- *)

let rs_schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]) ]
let rs_keys = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ]

let test_theory_key_block () =
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]);
        ("S", [ [ Value.int 7; Value.int 10 ] ]);
      ]
  in
  let t = Cavsat.Theory.build db rs_schema rs_keys in
  check Alcotest.bool "repairs exist" false t.Cavsat.Theory.no_repairs;
  (* One key group of two: x1, x2; ¬x1∨¬x2 and x1∨x2. *)
  check Alcotest.int "two vars" 2 t.Cavsat.Theory.base.Cavsat.Theory.vars;
  check Alcotest.int "two clauses" 2 t.Cavsat.Theory.base.Cavsat.Theory.clauses;
  check Alcotest.int "one conflict edge" 1
    t.Cavsat.Theory.base.Cavsat.Theory.conflict_edges;
  (* Exactly the two singleton repairs: models = maximal independent sets. *)
  match Dpll.solve t.Cavsat.Theory.solver with
  | None -> Alcotest.fail "theory of a repairable instance is satisfiable"
  | Some m -> check Alcotest.bool "exactly one kept" true (m.(1) <> m.(2))

(* The theory keeps the conflicting tids only: one conflict at the top
   of 2,000 consistent tuples leaves two entries, not an array as long
   as the largest tid. *)
let test_theory_sized_by_conflicts () =
  let consistent = List.init 2000 (fun i -> [ Value.int i; Value.int 0 ]) in
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          consistent
          @ [ [ Value.int 5000; Value.int 1 ]; [ Value.int 5000; Value.int 2 ] ]
        );
      ]
  in
  let t = Cavsat.Theory.build db rs_schema rs_keys in
  check Alcotest.int "two conflicting tids kept" 2
    (Array.length (Cavsat.Theory.conflicting t));
  let vars =
    Relational.Tid.Set.elements (Instance.tids db)
    |> List.filter_map (Cavsat.Theory.var_for t)
  in
  check Alcotest.(list int) "variables of the conflicting pair" [ 1; 2 ] vars;
  check Alcotest.bool "top tids" true
    (Array.for_all (fun tid -> tid >= 2000) (Cavsat.Theory.conflicting t))

let test_theory_cache () =
  let db =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]) ]
  in
  let t1 = Cavsat.Theory.cached db rs_schema rs_keys in
  let t2 = Cavsat.Theory.cached db rs_schema rs_keys in
  check Alcotest.bool "same theory instance" true (t1 == t2)

(* ---- Certain --------------------------------------------------------- *)

(* q(x) :- R(x,y), S(z,y): the Fuxman–Miller coNP-hard pattern. *)
let hard = Cq.make ~name:"hard" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]

let certain_sat db q =
  Cavsat.Certain.consistent_answers db rs_schema rs_keys (Ucq.of_cq q)

let certain_enum db q =
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q

let test_certain_planted () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [
            (* uncertain: only one claimant's value has S support *)
            [ Value.int 1; Value.int 10 ];
            [ Value.int 1; Value.int 11 ];
            (* certain despite conflict: both claimants supported *)
            [ Value.int 2; Value.int 20 ];
            [ Value.int 2; Value.int 21 ];
            (* clean and supported *)
            [ Value.int 3; Value.int 30 ];
          ] );
        ( "S",
          [
            [ Value.int 70; Value.int 10 ];
            [ Value.int 71; Value.int 20 ];
            [ Value.int 72; Value.int 21 ];
            [ Value.int 73; Value.int 30 ];
          ] );
      ]
  in
  let sat = certain_sat db hard in
  check rows "planted certain answers" [ [ "2" ]; [ "3" ] ] (strings_of sat);
  check rows "agrees with enumeration" (strings_of (certain_enum db hard))
    (strings_of sat)

let test_certain_needs_maximality () =
  (* Both claimants of the key group produce the SAME answer.  A
     non-maximal consistent subset (drop both) kills every witness, but
     every S-repair keeps one — so the answer is certain, and an
     encoding without maximality clauses would wrongly refute it. *)
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]);
        ("S", [ [ Value.int 7; Value.int 10 ]; [ Value.int 8; Value.int 11 ] ]);
      ]
  in
  check rows "certain through either claimant" [ [ "1" ] ]
    (strings_of (certain_sat db hard));
  check rows "agrees with enumeration" (strings_of (certain_enum db hard))
    [ [ "1" ] ]

let test_certain_boolean () =
  let bool_q = Cq.make ~name:"b" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ] in
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]);
        ("S", [ [ Value.int 7; Value.int 10 ] ]);
      ]
  in
  (* The only witness dies in the repair keeping R(1,11): not certain. *)
  check rows "boolean not certain" [] (strings_of (certain_sat db bool_q));
  check rows "enumeration agrees" (strings_of (certain_enum db bool_q)) [];
  let db2 =
    Instance.add db (Relational.Fact.make "S" [ Value.int 8; Value.int 11 ])
  in
  check rows "boolean certain" [ [] ] (strings_of (certain_sat db2 bool_q));
  check rows "enumeration agrees too" (strings_of (certain_enum db2 bool_q))
    [ [] ]

let test_certain_rejects_inds () =
  let schema =
    Schema.of_list [ ("Supply", [ "c"; "r"; "i" ]); ("Articles", [ "i" ]) ]
  in
  let db = Instance.create schema in
  let ind = Ic.ind ~sub:("Supply", [ 2 ]) ~sup:("Articles", [ 0 ]) in
  let q = Cq.make ~name:"q" [ x ] [ Atom.make "Articles" [ x ] ] in
  match Cavsat.Certain.consistent_answers db schema [ ind ] (Ucq.of_cq q) with
  | _ -> Alcotest.fail "SAT backend accepted an inclusion dependency"
  | exception Invalid_argument msg ->
      check Alcotest.bool "message names the constraint class" true
        (String.length msg > 0
        && Str.string_match (Str.regexp ".*denial-class.*") msg 0)

(* A self-join matching one tuple twice: [T(a,a)] alone satisfies
   [T(X,Y), T(Y,X)], so its witness is the single tid of [T(a,a)], not
   a pair.  [T(a,a)] is contested by [T(a,b)] under the key; with
   [T(b,a)] present the repair keeping [T(a,b)] has the witness
   [{T(a,b), T(b,a)}] instead, and the Boolean query turns certain. *)
let test_selfjoin_single_tid_witness () =
  let schema = Schema.of_list [ ("T", [ "k"; "v" ]) ] in
  let keys = [ Ic.key ~rel:"T" [ 0 ] ] in
  let a = Value.str "a" and b = Value.str "b" in
  let q = Cq.make ~name:"loop" [] [ Atom.make "T" [ x; y ]; Atom.make "T" [ y; x ] ] in
  let tid_of db row =
    fst
      (List.find
         (fun (_, r) -> Array.to_list r = row)
         (Instance.tuples db ~rel:"T"))
  in
  let case facts expected =
    let db = Instance.of_rows schema [ ("T", facts) ] in
    let witnesses =
      let w, cands = Cavsat.Witness.answers_with_witnesses q db in
      List.map (fun (c : Cavsat.Witness.candidate) -> (c.row, Cavsat.Witness.sets w c)) cands
    in
    let sat = Cavsat.Certain.consistent_answers db schema keys (Ucq.of_cq q) in
    let eng = Cqa.Engine.create ~schema ~ics:keys db in
    check rows "agrees with enumeration"
      (strings_of
         (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q))
      (strings_of sat);
    check rows "certain answers" expected (strings_of sat);
    (db, witnesses)
  in
  let db, ws = case [ [ a; a ]; [ a; b ] ] [] in
  check
    Alcotest.(list (pair (list string) (list (list int))))
    "one candidate, one single-tid witness"
    [ ([], [ [ Relational.Tid.to_int (tid_of db [ a; a ]) ] ]) ]
    (List.map
       (fun (row, ws) ->
         ( List.map Value.to_string row,
           List.map (fun w -> List.map Relational.Tid.to_int (Array.to_list w)) ws ))
       ws);
  let db, ws = case [ [ a; a ]; [ a; b ]; [ b; a ] ] [ [] ] in
  let t = Relational.Tid.to_int (tid_of db [ a; a ]) in
  let pair =
    List.sort Int.compare
      (List.map (fun r -> Relational.Tid.to_int (tid_of db r)) [ [ a; b ]; [ b; a ] ])
  in
  check
    Alcotest.(list (list int))
    "the loop and the pair, in set order" [ [ t ]; pair ]
    (List.map
       (fun w -> List.map Relational.Tid.to_int (Array.to_list w))
       (snd (List.hd ws)))

(* A candidate with a witness in no conflict is certain without a SAT
   call: [R(2,20)] is outside the theory's only conflict (key 1). *)
let test_clean_witness_skips_sat () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [
            [ Value.int 1; Value.int 10 ];
            [ Value.int 1; Value.int 11 ];
            [ Value.int 2; Value.int 20 ];
          ] );
      ]
  in
  let q =
    Cq.make ~name:"two" ~comps:[ Cmp.eq x (Term.const (Value.int 2)) ] [ x ]
      [ Atom.make "R" [ x; y ] ]
  in
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  let sat = certain_sat db q in
  let delta = Obs.Registry.counter_delta ~since:before reg in
  let d name = Option.value ~default:0 (List.assoc_opt name delta) in
  check rows "certain" [ [ "2" ] ] (strings_of sat);
  check rows "agrees with enumeration" (strings_of (certain_enum db q))
    (strings_of sat);
  check Alcotest.int "one candidate" 1 (d "cavsat.candidates");
  check Alcotest.int "clean witness counted" 1 (d "cavsat.clean_witness");
  check Alcotest.int "no SAT call" 0 (d "cavsat.sat_calls");
  check Alcotest.int "no witness clause" 0 (d "cavsat.witness_clauses")

(* ---- Engine dispatch ------------------------------------------------- *)

let test_engine_auto_routes_to_sat () =
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]);
        ("S", [ [ Value.int 7; Value.int 10 ]; [ Value.int 8; Value.int 11 ] ]);
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  (* The Boolean variant is the trichotomy's coNP-hard strong 2-cycle
     (with x free the attack graph is acyclic and the Datalog tier
     takes it instead). *)
  let bhard =
    Cq.make ~name:"bhard" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let plan = Cqa.Engine.plan eng bhard in
  check Alcotest.string "route" "sat_compilation"
    (Cqa.Engine.route_label plan.Cqa.Engine.route);
  (* The auto dispatch must not touch the repair enumerator. *)
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  let auto = Cqa.Engine.consistent_answers eng bhard in
  let delta = Obs.Registry.counter_delta ~since:before reg in
  let d name = Option.value ~default:0 (List.assoc_opt name delta) in
  check rows "auto answers (certainly true)" [ [] ] (strings_of auto);
  check Alcotest.int "zero repair enumerations" 0 (d "repairs.enumerations");
  check Alcotest.int "zero repair candidates" 0 (d "repairs.candidates");
  check Alcotest.int "zero hitting-set nodes" 0 (d "sat.hitting_set.nodes");
  check Alcotest.bool "sat calls happened" true (d "cavsat.sat_calls" > 0);
  (* Forced method=sat gives the same rows. *)
  check rows "method=sat agrees" (strings_of auto)
    (strings_of (Cqa.Engine.consistent_answers ~method_:`Sat eng bhard))

let test_engine_sat_on_rewritable_query () =
  (* method=sat is exact outside the hard tier too. *)
  let db =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]) ]
  in
  let proj = Cq.make ~name:"proj" [ x ] [ Atom.make "R" [ x; y ] ] in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  check rows "proj certain" [ [ "1" ] ]
    (strings_of (Cqa.Engine.consistent_answers ~method_:`Sat eng proj))

(* Every query shape the property runs: a projection, the coNP-hard
   nonkey-nonkey join, its Boolean form, a full-tuple query, and a
   comparison query. *)
let shapes =
  [
    Cq.make ~name:"proj" [ x ] [ Atom.make "R" [ x; y ] ];
    hard;
    Cq.make ~name:"bool" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ];
    Cq.make ~name:"full" [ x; y ] [ Atom.make "R" [ x; y ] ];
    Cq.make ~name:"cmp" ~comps:[ Cmp.make Cmp.Lt x y ] [ x ]
      [ Atom.make "R" [ x; y ] ];
  ]

(* Self-join and weak-cycle shapes: the classifier leaves each one
   [Unknown] (self-join, weak attack cycle), so [method=auto] answers
   them by SAT compilation.  The last two carry a repeated variable and
   a constant inside a self-join. *)
let c1 = Term.const (Value.int 1)

let sat_route_shapes =
  [
    Cq.make ~name:"selfjoin" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "R" [ y; z ] ];
    Cq.make ~name:"weakcycle" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; x ] ];
    Cq.make ~name:"repeated" [ x ]
      [ Atom.make "R" [ x; x ]; Atom.make "R" [ y; x ] ];
    Cq.make ~name:"constant" [ y ]
      [ Atom.make "R" [ c1; y ]; Atom.make "R" [ y; z ] ];
  ]

let deny =
  Ic.denial ~name:"no_rs_pair" [ Atom.make "R" [ x; y ]; Atom.make "S" [ x; y ] ]

let test_engine_plans_sat_for_unrewritable () =
  let db = Instance.create rs_schema in
  List.iter
    (fun ics ->
      let eng = Cqa.Engine.create ~schema:rs_schema ~ics db in
      List.iter
        (fun q ->
          check Alcotest.string
            (Printf.sprintf "%s routes to SAT" q.Cq.name)
            "sat_compilation"
            (Cqa.Engine.route_label (Cqa.Engine.plan eng q).Cqa.Engine.route))
        sat_route_shapes)
    [ rs_keys; deny :: rs_keys ]

(* An unsafe query (head variable bound by no atom) classifies
   [Unknown] and so routes to SAT, which refuses it as enumeration does
   rather than answering it silently. *)
let test_unsafe_query_refused () =
  let db =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.int 1; Value.int 1 ]; [ Value.int 1; Value.int 2 ] ]) ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  let unsafe =
    Cq.make ~name:"unsafe" [ x ] [ Atom.make "R" [ y; z ]; Atom.make "R" [ z; y ] ]
  in
  let refused m =
    match Cqa.Engine.consistent_answers ~method_:m eng unsafe with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "enumeration refuses" true (refused `Repair_enumeration);
  check Alcotest.bool "auto refuses" true (refused `Auto)

(* Each candidate is rolled back after its solve, so the cached theory
   stays at its built size however many queries it serves. *)
let test_theory_size_constant () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [
            [ Value.int 1; Value.int 2 ];
            [ Value.int 1; Value.int 3 ];
            [ Value.int 2; Value.int 1 ];
            [ Value.int 2; Value.int 3 ];
            [ Value.int 3; Value.int 1 ];
          ] );
        ( "S",
          [
            [ Value.int 2; Value.int 1 ];
            [ Value.int 2; Value.int 2 ];
            [ Value.int 3; Value.int 1 ];
          ] );
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  let qs = Array.of_list (shapes @ sat_route_shapes) in
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  for i = 0 to 99 do
    ignore
      (Cqa.Engine.consistent_answers ~method_:`Sat eng
         qs.(i mod Array.length qs))
  done;
  let delta = Obs.Registry.counter_delta ~since:before reg in
  check Alcotest.bool "candidates reached the solver" true
    (Option.value ~default:0 (List.assoc_opt "cavsat.sat_calls" delta) >= 100);
  let t = Cavsat.Theory.cached db rs_schema rs_keys in
  let base = t.Cavsat.Theory.base in
  let solver = t.Cavsat.Theory.solver in
  check Alcotest.int "nclauses = base" base.Cavsat.Theory.clauses
    (Dpll.nclauses solver);
  check Alcotest.int "nvars = base" base.Cavsat.Theory.vars (Dpll.nvars solver);
  check Alcotest.int "no learned clause left" 0 (Dpll.learned_clauses solver)

(* The key rewriting declines instances with NULLs; under keys the
   engine then answers by SAT, not by enumerating repairs. *)
let test_null_fallback_is_sat () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [
            [ Value.int 1; Value.int 10 ];
            [ Value.int 1; Value.int 11 ];
            [ Value.int 2; Value.Null ];
            [ Value.int 3; Value.int 30 ];
          ] );
        ( "S",
          [
            [ Value.int 7; Value.int 10 ];
            [ Value.int 8; Value.int 11 ];
            [ Value.int 9; Value.Null ];
            [ Value.int 9; Value.int 30 ];
          ] );
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  check Alcotest.string "acyclic: planned as the rewriting" "key_rewriting"
    (Cqa.Engine.route_label (Cqa.Engine.plan eng hard).Cqa.Engine.route);
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  let auto = Cqa.Engine.consistent_answers eng hard in
  let delta = Obs.Registry.counter_delta ~since:before reg in
  let d name = Option.value ~default:0 (List.assoc_opt name delta) in
  check Alcotest.int "no repair enumeration" 0 (d "repairs.enumerations");
  check Alcotest.bool "answered by SAT" true (d "cavsat.queries" > 0);
  check rows "agrees with enumeration" (strings_of (certain_enum db hard))
    (strings_of auto)

(* A cold SAT query builds its theory straight from the conflict
   edges: the build shows as a [cavsat.theory_build] span (phase sat)
   with its size, and no conflict graph is built. *)
let test_cold_theory_span () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [ [ Value.int 9001; Value.int 1 ]; [ Value.int 9001; Value.int 2 ] ] );
        ("S", [ [ Value.int 9002; Value.int 1 ] ]);
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  let answers, spans =
    Obs.Trace.collect (fun () ->
        Cqa.Engine.consistent_answers ~method_:`Sat eng hard)
  in
  check rows "nothing certain" [] (strings_of answers);
  let named n = List.filter (fun (s : Obs.Trace.span) -> s.name = n) spans in
  check Alcotest.int "no conflict graph built" 0
    (List.length (named "conflict_graph.build"));
  match named "cavsat.theory_build" with
  | [ s ] ->
      let attr k = List.assoc_opt k s.Obs.Trace.attrs in
      check Alcotest.(option string) "edges" (Some "1") (attr "edges");
      check Alcotest.(option string) "vars" (Some "2") (attr "vars");
      check Alcotest.(option string) "clauses" (Some "2") (attr "clauses");
      check Alcotest.(option string) "phase" (Some "sat")
        (Obs.Stats.phase_of_span s.Obs.Trace.name)
  | l -> Alcotest.failf "%d cavsat.theory_build spans" (List.length l)

(* Reads after writes patch the theory: a third claimant joins the key
   group {t1, t2} (two edges in; the shared at-least-one clause of the
   pair makes way for the triple's), then leaves (two edges and that
   clause out, the pair's clause back).  Four clauses are then removed
   against two live ones, so the next read builds cold, tagged. *)
let test_patch_then_dead_clause_rebuild () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [ [ Value.int 9101; Value.int 1 ]; [ Value.int 9101; Value.int 2 ] ] );
        ("S", [ [ Value.int 9102; Value.int 1 ] ]);
      ]
  in
  let claimant = Relational.Fact.make "R" [ Value.int 9101; Value.int 3 ] in
  let read eng =
    let answers, spans =
      Obs.Trace.collect (fun () ->
          Cqa.Engine.consistent_answers ~method_:`Sat eng hard)
    in
    check rows "SAT = enumeration"
      (strings_of (certain_enum eng.Cqa.Engine.instance hard))
      (strings_of answers);
    let named n = List.filter (fun (s : Obs.Trace.span) -> s.name = n) spans in
    let attrs n =
      match named n with
      | [ s ] -> Some s.Obs.Trace.attrs
      | [] -> None
      | l -> Alcotest.failf "%d %s spans" (List.length l) n
    in
    (attrs "cavsat.theory_build", attrs "cavsat.theory_patch")
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  (match read eng with
  | Some _, None -> ()
  | _ -> Alcotest.fail "first read: one cold build");
  let eng = Cqa.Engine.update eng `Add claimant in
  (match read eng with
  | None, Some a ->
      List.iter
        (fun (k, v) -> check Alcotest.(option string) k (Some v) (List.assoc_opt k a))
        [
          ("tids_added", "1"); ("tids_deleted", "0"); ("edges_added", "2");
          ("edges_removed", "0"); ("clauses_removed", "1");
        ];
      check Alcotest.(option string) "phase" (Some "sat")
        (Obs.Stats.phase_of_span "cavsat.theory_patch")
  | _ -> Alcotest.fail "read after the add: one patch, no build");
  let eng = Cqa.Engine.update eng `Del claimant in
  (match read eng with
  | None, Some a ->
      check Alcotest.(option string) "edges_removed" (Some "2")
        (List.assoc_opt "edges_removed" a);
      check Alcotest.(option string) "clauses_removed" (Some "3")
        (List.assoc_opt "clauses_removed" a)
  | _ -> Alcotest.fail "read after the delete: one patch, no build");
  let eng = Cqa.Engine.update eng `Add claimant in
  match read eng with
  | Some a, None ->
      check Alcotest.(option string) "tagged" (Some "dead_clauses")
        (List.assoc_opt "rebuild" a)
  | _ -> Alcotest.fail "removed clauses outnumber the live ones: a cold build"

(* A three-tuple denial: the chain R(x,y), S(y,z), S(z,w). *)
let chain =
  Ic.denial ~name:"chain"
    [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ];
      Atom.make "S" [ z; Term.var "w" ] ]

(* A tuple's maximality clause next to an edge of three tuples.  Edges
   {t1,t2} (key R[a]) and {t1,t3,t4} (the chain): t1's clause carries an
   aux literal, t2's is the plain x1 ∨ x2.  A dedup that registered t1's
   literal set skipped t2's clause and admitted the non-maximal {t3,t4},
   a model killing both witnesses of the Boolean query, which every
   S-repair satisfies through t1 or t2. *)
let test_maximality_behind_wide_edge () =
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]);
        ("S", [ [ Value.int 10; Value.int 20 ]; [ Value.int 20; Value.int 30 ] ]);
      ]
  in
  let ics = [ Ic.key ~rel:"R" [ 0 ]; chain ] in
  let q = Cq.make ~name:"some_r" [] [ Atom.make "R" [ x; y ] ] in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics db in
  let enum = Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q in
  check rows "certain under enumeration" [ [] ] (strings_of enum);
  check rows "certain under SAT" [ [] ]
    (strings_of
       (Cavsat.Certain.consistent_answers db rs_schema ics (Ucq.of_cq q)))

(* The executed route, not the planned one, is what the progress
   context and the trace report when the rewriting declines (the
   proj(x) :- R(x,y) on R(NULL,NULL) case). *)
let test_declined_rewriting_reports_sat () =
  let db = Instance.of_rows rs_schema [ ("R", [ [ Value.Null; Value.Null ] ]) ] in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  let proj = Cq.make ~name:"proj" [ x ] [ Atom.make "R" [ x; y ] ] in
  let c = Obs.Progress.create ~label:"query" ~id:0 () in
  let answers, spans =
    Obs.Trace.collect (fun () ->
        Obs.Progress.run c (fun () -> Cqa.Engine.consistent_answers eng proj))
  in
  check rows "agrees with enumeration" (strings_of (certain_enum db proj))
    (strings_of answers);
  check Alcotest.string "progress branch" "sat_compilation"
    (Obs.Progress.branch c);
  match
    List.find_opt
      (fun (s : Obs.Trace.span) -> s.name = "engine.certain_answers")
      spans
  with
  | None -> Alcotest.fail "no engine span"
  | Some s ->
      let attr k = List.assoc_opt k s.Obs.Trace.attrs in
      check Alcotest.(option string) "planned" (Some "key_rewriting")
        (attr "route");
      check Alcotest.(option string) "executed" (Some "sat_compilation")
        (attr "executed_route")

(* The key route's second reason to decline on NULLs: a NULL non-key
   cell.  (2, NULL) and (2, 2) share R's key but conflict on nothing
   (a NULL cell differs from no value), so R(2, 2) stays in every repair
   and joins S(0, 2): 2 is certain.  The rewriting's guard still
   quantifies over (2, NULL) as a block mate, finds no S tuple joining
   its NULL, and would refute 2.  [auto] declines the rewriting and
   answers on SAT, with enumeration's answer. *)
let test_null_block_mate_declines () =
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 2; Value.Null ]; [ Value.int 2; Value.int 2 ] ]);
        ( "S",
          [
            [ Value.int 0; Value.int 2 ];
            [ Value.int 1; Value.int 2 ];
            [ Value.Null; Value.int 2 ];
          ] );
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  check Alcotest.string "planned as the rewriting" "key_rewriting"
    (Cqa.Engine.route_label (Cqa.Engine.plan eng hard).Cqa.Engine.route);
  let answers, spans =
    Obs.Trace.collect (fun () -> Cqa.Engine.consistent_answers eng hard)
  in
  check rows "enumeration" [ [ "2" ] ] (strings_of (certain_enum db hard));
  check rows "auto = enumeration" [ [ "2" ] ] (strings_of answers);
  match
    List.find_opt
      (fun (s : Obs.Trace.span) -> s.name = "engine.certain_answers")
      spans
  with
  | None -> Alcotest.fail "no engine span"
  | Some s ->
      check Alcotest.(option string) "executed" (Some "sat_compilation")
        (List.assoc_opt "executed_route" s.Obs.Trace.attrs)

(* A forced key rewriting is refused on the same NULL input, where it
   used to read the NULL mate as refuting its block and answer nothing. *)
let test_forced_key_rewriting_declines_null () =
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 2; Value.Null ]; [ Value.int 2; Value.int 2 ] ]);
        ( "S",
          [
            [ Value.int 0; Value.int 2 ];
            [ Value.int 1; Value.int 2 ];
            [ Value.Null; Value.int 2 ];
          ] );
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  (match Cqa.Engine.consistent_answers ~method_:`Key_rewriting eng hard with
  | exception Invalid_argument msg ->
      check Alcotest.bool msg true
        (String.starts_with
           ~prefix:"Engine.consistent_answers: key rewriting not applicable: "
           msg)
  | rows ->
      Alcotest.failf "forced key rewriting answered %d rows" (List.length rows));
  check rows "enumeration" [ [ "2" ] ]
    (strings_of
       (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng hard))

(* C-semantics queries never plan a route, but they report their
   branch all the same: a deadline ERR or INFLIGHT line must not read
   branch=?.  A union under auto plans one like any query: SAT under
   the keys. *)
let test_c_and_union_report_branch () =
  let db =
    Instance.of_rows rs_schema
      [
        ("R", [ [ Value.int 1; Value.int 10 ]; [ Value.int 1; Value.int 11 ] ]);
        ("S", [ [ Value.int 7; Value.int 10 ] ]);
      ]
  in
  let eng = Cqa.Engine.create ~schema:rs_schema ~ics:rs_keys db in
  let r_keys = Cq.make ~name:"r" [ x ] [ Atom.make "R" [ x; y ] ] in
  let s_keys = Cq.make ~name:"s" [ x ] [ Atom.make "S" [ x; y ] ] in
  let union = Logic.Ucq.make [ r_keys; s_keys ] in
  let branch run =
    let c = Obs.Progress.create ~label:"query" ~id:0 () in
    let answers = Obs.Progress.run c run in
    (Obs.Progress.branch c, List.length answers)
  in
  check
    Alcotest.(pair string int)
    "C-semantics CQ" ("asp_c", 1)
    (branch (fun () -> Cqa.Engine.consistent_answers_c eng (Ucq.of_cq r_keys)));
  check
    Alcotest.(pair string int)
    "union, auto" ("sat_compilation", 2)
    (branch (fun () -> Cqa.Engine.consistent_answers_ucq eng union));
  check
    Alcotest.(pair string int)
    "union, enumeration" ("repair_enumeration", 2)
    (branch (fun () ->
         Cqa.Engine.consistent_answers_ucq ~method_:`Repair_enumeration eng
           union));
  check
    Alcotest.(pair string int)
    "union, ASP" ("asp", 2)
    (branch (fun () -> Cqa.Engine.consistent_answers_ucq ~method_:`Asp eng union))

(* ---- qcheck equivalence (SAT ≡ enumeration) -------------------------- *)

(* Cells are [None] for NULL.  The NULL-free generator keeps keys in
   0..2 and values in 0..3, so key groups collide often. *)
let cell = function None -> Value.Null | Some n -> Value.int n

let instance_of (rs, ss) =
  Instance.of_rows rs_schema
    [
      ("R", List.map (fun (a, b) -> [ cell a; cell b ]) rs);
      ("S", List.map (fun (a, b) -> [ cell a; cell b ]) ss);
    ]

let some_int hi = QCheck.Gen.map Option.some (QCheck.Gen.int_range 0 hi)

let maybe_null hi =
  QCheck.Gen.(frequency [ (1, return None); (4, some_int hi) ])

let arb_db_of cell_gen =
  let side =
    QCheck.Gen.(list_size (int_range 0 6) (pair (cell_gen 2) (cell_gen 3)))
  in
  QCheck.make
    QCheck.Gen.(pair side side)
    ~print:(fun (rs, ss) ->
      let c = function None -> "NULL" | Some n -> string_of_int n in
      let side l =
        String.concat ";"
          (List.map (fun (a, b) -> Printf.sprintf "%s,%s" (c a) (c b)) l)
      in
      Printf.sprintf "R=%s S=%s" (side rs) (side ss))

let arb_db = arb_db_of some_int
let arb_db_nulls = arb_db_of maybe_null

(* [`Sat] calls the SAT backend directly; [`Auto] goes through
   [Engine.plan], whichever route it picks. *)
let equivalent ?(via = `Sat) ics db_spec =
  let db = instance_of db_spec in
  let schema = Instance.schema db in
  let eng = Cqa.Engine.create ~schema ~ics db in
  List.for_all
    (fun q ->
      let got =
        match via with
        | `Sat -> Cavsat.Certain.consistent_answers db schema ics (Ucq.of_cq q)
        | `Auto -> Cqa.Engine.consistent_answers eng q
      in
      got = Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
    (shapes @ sat_route_shapes)

let prop_sat_equals_enum_keys =
  QCheck.Test.make ~count:150 ~name:"SAT ≡ enumeration under keys" arb_db
    (equivalent rs_keys)

let prop_sat_equals_enum_denial =
  (* A cross-relation denial on top of the keys: hyperedges that are not
     key groups, so maximality needs real aux reasoning. *)
  QCheck.Test.make ~count:150 ~name:"SAT ≡ enumeration under keys + denial"
    arb_db
    (equivalent (deny :: rs_keys))

let prop_sat_equals_enum_chain =
  (* Edges of three tuples: maximality through aux variables. *)
  QCheck.Test.make ~count:150 ~name:"SAT ≡ enumeration under keys + 3-tuple denial"
    arb_db
    (equivalent (chain :: rs_keys))

let prop_sat_equals_enum_nulls =
  QCheck.Test.make ~count:150 ~name:"SAT ≡ enumeration with NULLs"
    arb_db_nulls (fun spec ->
      equivalent rs_keys spec && equivalent (deny :: rs_keys) spec)

let prop_auto_equals_enum =
  QCheck.Test.make ~count:150 ~name:"auto ≡ enumeration on every route"
    arb_db (fun spec ->
      equivalent ~via:`Auto rs_keys spec
      && equivalent ~via:`Auto (deny :: rs_keys) spec)

let prop_auto_equals_enum_nulls =
  QCheck.Test.make ~count:150 ~name:"auto ≡ enumeration with NULLs"
    arb_db_nulls (fun spec ->
      equivalent ~via:`Auto rs_keys spec
      && equivalent ~via:`Auto (deny :: rs_keys) spec)

(* Two-disjunct unions of every pair of equal-arity shapes (a shape
   with itself included): NULLs, self-joins, repeated variables and
   constants reach the union's witness merge. *)
let union_shapes =
  let all = shapes @ sat_route_shapes in
  List.concat
    (List.mapi
       (fun i q ->
         List.filteri
           (fun j q' -> j >= i && Cq.arity q' = Cq.arity q)
           all
         |> List.map (fun q' -> Ucq.make ~name:"u" [ q; q' ]))
       all)

let union_equivalent ics db_spec =
  let db = instance_of db_spec in
  let schema = Instance.schema db in
  let eng = Cqa.Engine.create ~schema ~ics db in
  List.for_all
    (fun u ->
      let enum =
        Cqa.Engine.consistent_answers_ucq ~method_:`Repair_enumeration eng u
      in
      Cavsat.Certain.consistent_answers db schema ics u = enum
      && Cqa.Engine.consistent_answers_ucq eng u = enum)
    union_shapes

let prop_sat_equals_enum_unions =
  QCheck.Test.make ~count:100 ~name:"SAT ≡ enumeration on unions" arb_db_nulls
    (fun spec ->
      union_equivalent rs_keys spec && union_equivalent (deny :: rs_keys) spec)

(* A union whose answer no disjunct certainly gives: every repair keeps
   R(1,10) or R(1,11), so 1 is certain for the union and for neither
   disjunct.  Auto and sat answer it by SAT, with no repair enumerated
   and no ASP program grounded; enumeration and ASP stay its oracles. *)
let test_union_on_sat_enumerates_nothing () =
  let db =
    Instance.of_rows rs_schema
      [
        ( "R",
          [
            [ Value.int 1; Value.int 10 ];
            [ Value.int 1; Value.int 11 ];
            [ Value.int 2; Value.int 12 ];
          ] );
        ("S", [ [ Value.int 2; Value.int 10 ] ]);
      ]
  in
  let q v =
    Cq.make ~name:"u" [ x ] [ Atom.make "R" [ x; Term.const (Value.int v) ] ]
  in
  let u = Ucq.make ~name:"u" [ q 10; q 11 ] in
  List.iter
    (fun ics ->
      let eng = Cqa.Engine.create ~schema:rs_schema ~ics db in
      check rows "no disjunct alone" []
        (strings_of (Cqa.Engine.consistent_answers eng (q 10))
        @ strings_of (Cqa.Engine.consistent_answers eng (q 11)));
      check Alcotest.string "auto plans SAT" "sat_compilation"
        (Cqa.Engine.route_label (Cqa.Engine.plan_ucq eng u).Cqa.Engine.route);
      List.iter
        (fun m ->
          let reg = Obs.Registry.current () in
          let before = Obs.Registry.counter_snapshot reg in
          let got = Cqa.Engine.consistent_answers_ucq ~method_:m eng u in
          let delta = Obs.Registry.counter_delta ~since:before reg in
          check rows "the union is certain" [ [ "1" ] ] (strings_of got);
          check Alcotest.int "zero repair enumerations" 0
            (Option.value ~default:0
               (List.assoc_opt "repairs.enumerations" delta));
          check Alcotest.(list (pair string int)) "no ASP work" []
            (List.filter
               (fun (n, v) -> v <> 0 && String.starts_with ~prefix:"asp." n)
               delta);
          check Alcotest.bool "answered by SAT" true
            (List.assoc_opt "cavsat.candidates" delta = Some 1))
        [ `Auto; `Sat ];
      List.iter
        (fun m ->
          check rows "oracle agrees" [ [ "1" ] ]
            (strings_of (Cqa.Engine.consistent_answers_ucq ~method_:m eng u)))
        [ `Repair_enumeration; `Asp ])
    [ rs_keys; deny :: rs_keys ]

(* ---- the probe encoding against the selector encoding --------------- *)

module Witness = Cavsat.Witness
module Theory = Cavsat.Theory

(* The variables of witness [i]'s conflicting members, ascending by tid. *)
let conflicting theory (w : Witness.t) i =
  List.filter_map
    (fun j ->
      match Theory.var_of_tid theory w.tids.(j) with 0 -> None | v -> Some v)
    (List.init
       (Witness.stop w i - Witness.start w i)
       (fun k -> Witness.start w i + k))

(* The encoding the probes replaced, kept here as their oracle: a
   candidate with a clean witness is certain; otherwise every witness
   becomes the clause [-s ∨ -v1 ∨ …] under a fresh selector s, solved
   by [Dpll.solve ~assumptions:[s]] (which keeps its refutation) and
   rolled back. *)
let selector_certain theory (w : Witness.t) (c : Witness.candidate) =
  let witnesses =
    List.init (c.last - c.first) (fun k -> conflicting theory w (c.first + k))
  in
  List.mem [] witnesses
  ||
  let solver = theory.Theory.solver in
  let m = Dpll.mark solver in
  let s = Dpll.fresh_var solver in
  List.iter
    (fun vs -> Dpll.add_clause_list solver (-s :: List.map (fun v -> -v) vs))
    witnesses;
  let certain = Dpll.solve ~assumptions:[ s ] solver = None in
  Dpll.rollback solver m;
  certain

(* Witness kinds met by the probes: no conflicting member, one, two or
   more, and a candidate with two unit witnesses on the same member. *)
let drawn = Array.make 4 0

let tally theory (w : Witness.t) (c : Witness.candidate) =
  let units = ref [] in
  for i = c.first to c.last - 1 do
    match conflicting theory w i with
    | [] -> drawn.(0) <- drawn.(0) + 1
    | [ v ] ->
        drawn.(1) <- drawn.(1) + 1;
        if List.mem v !units then drawn.(3) <- drawn.(3) + 1;
        units := v :: !units
    | _ -> drawn.(2) <- drawn.(2) + 1
  done

(* Per candidate of every shape (self-joins included): the probe and the
   selector encoding agree, and after every probe the solver holds
   exactly the theory's base — clause slots, variables, no learned
   clause, the same live clauses. *)
let probes_agree ics spec =
  let db = instance_of spec in
  let theory = Theory.build db rs_schema ics in
  theory.Theory.no_repairs
  ||
  let solver = theory.Theory.solver in
  let state () =
    ( Dpll.nclauses solver,
      Dpll.nvars solver,
      Dpll.learned_clauses solver,
      Dpll.clauses solver )
  in
  let base = state () in
  let built = theory.Theory.base in
  base = (built.Theory.clauses, built.Theory.vars, 0, Dpll.clauses solver)
  && List.for_all
       (fun q ->
         let w, candidates = Witness.answers_with_witnesses q db in
         List.for_all
           (fun c ->
             tally theory w c;
             let got = Cavsat.Certain.candidate_certain theory w c in
             let after_probe = state () in
             let want = selector_certain theory w c in
             got = want && after_probe = base && state () = base)
           candidates)
       (shapes @ sat_route_shapes)

let prop_probe_equals_selector =
  QCheck.Test.make ~count:150
    ~name:"probe encoding ≡ selector encoding, solver left at the base"
    arb_db_nulls (fun spec ->
      probes_agree (deny :: rs_keys) spec
      && probes_agree (chain :: rs_keys) spec)

(* The same check on a fixed seed, asserting the generator reaches every
   witness kind the probe encodes differently. *)
let test_probe_kinds_drawn () =
  Array.fill drawn 0 4 0;
  let rand = Random.State.make [| 28 |] in
  List.iter
    (fun spec ->
      check Alcotest.bool "probe = selector" true
        (probes_agree (deny :: rs_keys) spec))
    (QCheck.Gen.generate ~rand ~n:200 arb_db_nulls.QCheck.gen);
  List.iteri
    (fun k label ->
      check Alcotest.bool
        (Printf.sprintf "%s drawn (%d)" label drawn.(k))
        true
        (drawn.(k) > 0))
    [ "clean witness"; "unit witness"; "wide witness"; "repeated unit member" ]

(* ---- allocation: no garbage per witness, none per visited clause ---- *)

(* Words allocated so far, the arrays the major heap takes directly
   included (Gc.minor_words misses those).  The minor count comes from
   Gc.minor_words, which is exact; Gc.counters' own minor field lags
   until the next minor collection. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The Boolean hard join q() :- R(X,Y), S(Z,Y) under keys R[a], S[c],
   [blocks] times three value-disjoint gadgets: an R key group with a
   witness for one claimant, one with witnesses for both, and a
   contested S key with one witness — four witnesses a block, none of
   them clean, so every read compiles all of them into the solver. *)
let hard_join blocks =
  let schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]) ] in
  let r = ref [] and s = ref [] and next = ref 0 in
  let fresh () =
    incr next;
    Value.int !next
  in
  for _ = 1 to blocks do
    let k = fresh () and j1 = fresh () and j2 = fresh () in
    r := [ k; j1 ] :: [ k; j2 ] :: !r;
    s := [ fresh (); j1 ] :: !s;
    let k = fresh () and j1 = fresh () and j2 = fresh () in
    r := [ k; j1 ] :: [ k; j2 ] :: !r;
    s := [ fresh (); j1 ] :: [ fresh (); j2 ] :: !s;
    let k = fresh () and c = fresh () and j = fresh () in
    r := [ k; j ] :: !r;
    s := [ c; j ] :: [ c; fresh () ] :: !s
  done;
  (schema, Instance.of_rows schema [ ("R", List.rev !r); ("S", List.rev !s) ])

(* A warm read (theory built and cached) allocates per witness only
   its slots in the witness arena and, for a witness with one
   conflicting member (every witness here), its slot in the read's
   unit-assumption buffer, with the compiled body's columns: 9.1 words
   per extra witness, counted with the arrays the major heap takes
   directly (minor words alone read 2.1).  The bound is that plus half a
   word, so a refutation clause kept per probe (a word per unit) fails
   it; witness sets, literal lists, per-witness clauses and closures
   would cost far more. *)
let test_warm_read_allocation () =
  let keys = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ] in
  let q =
    Cq.make ~name:"q" []
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let words blocks =
    let schema, db = hard_join blocks in
    let witnesses =
      List.fold_left
        (fun n (c : Cavsat.Witness.candidate) -> n + c.last - c.first)
        0
        (snd (Cavsat.Witness.answers_with_witnesses q db))
    in
    let read () =
      Cavsat.Certain.consistent_answers db schema keys (Ucq.of_cq q)
    in
    check rows "certain" [ [] ] (strings_of (read ()));
    ignore (read ());
    let before = allocated_words () in
    ignore (read ());
    (witnesses, allocated_words () -. before)
  in
  let n1, w1 = words 250 and n4, w4 = words 1000 in
  check Alcotest.(pair int int) "witnesses" (1000, 4000) (n1, n4);
  let per = (w4 -. w1) /. float_of_int (n4 - n1) in
  check Alcotest.bool
    (Printf.sprintf "%.1f words per extra witness (%.0f at 1k, %.0f at 4k)"
       per w1 w4)
    true (per < 9.6)

(* Propagating a chain x1 → x2 → … → xn to its refutation [¬xn] visits
   every clause once; the words a solve allocates must not grow with n.
   The solver is sized by a first solve and rolled back after each, so
   the measured one starts from the same state at both lengths. *)
let test_propagation_allocation () =
  let words n =
    let s = Dpll.create () in
    for i = 1 to n - 1 do
      Dpll.add_clause s [| -i; i + 1 |]
    done;
    Dpll.add_clause s [| -n |];
    let solve () =
      let m = Dpll.mark s in
      let r = Dpll.solve ~assumptions:[ 1 ] s in
      Dpll.rollback s m;
      r
    in
    check Alcotest.bool "refuted" true (solve () = None);
    let before = Gc.minor_words () in
    ignore (solve ());
    Gc.minor_words () -. before
  in
  let w1 = words 1_000 and w10 = words 10_000 in
  check Alcotest.bool
    (Printf.sprintf "10k-clause chain %.0f words, 1k-clause chain %.0f words"
       w10 w1)
    true
    (Float.abs (w10 -. w1) < 200.)

(* Adding a clause appends to its literals' occurrence vectors, which
   keep their capacity across a rollback, and the rollback pops each
   entry with a length decrement: once a first round has sized the
   vectors, adding n prebuilt clauses (literal 1 in every one, so one
   vector holds n entries) and rolling them back allocates nothing per
   occurrence.  A cons cell per occurrence would cost 9 words a clause. *)
let test_add_rollback_allocation () =
  let words n =
    let s = Dpll.create () in
    let cs = Array.init n (fun i -> [| 1; -(i + 2); i + 3 |]) in
    let round () =
      let m = Dpll.mark s in
      for i = 0 to n - 1 do
        Dpll.add_clause s cs.(i)
      done;
      Dpll.rollback s m
    in
    round ();
    let before = allocated_words () in
    round ();
    allocated_words () -. before
  in
  let w1 = words 1_000 and w10 = words 10_000 in
  check Alcotest.bool
    (Printf.sprintf "10k clauses %.0f words, 1k clauses %.0f words" w10 w1)
    true
    (Float.abs (w10 -. w1) < 200.)

let suite =
  [
    Alcotest.test_case "incremental: grow and solve" `Quick test_incremental_basic;
    Alcotest.test_case "incremental: assumptions learn refutations" `Quick
      test_incremental_assumptions;
    Alcotest.test_case "incremental: empty clause" `Quick
      test_incremental_empty_clause;
    Alcotest.test_case "incremental: selector per probe" `Quick
      test_incremental_many_selectors;
    Alcotest.test_case "incremental: mark and rollback" `Quick
      test_incremental_rollback;
    Alcotest.test_case "incremental: deadline leaves solver blank" `Quick
      test_incremental_deadline_leaves_solver_blank;
    Alcotest.test_case "theory: key block encoding" `Quick test_theory_key_block;
    Alcotest.test_case "theory: cached per digest" `Quick test_theory_cache;
    Alcotest.test_case "certain: planted instance" `Quick test_certain_planted;
    Alcotest.test_case "certain: maximality clauses matter" `Quick
      test_certain_needs_maximality;
    Alcotest.test_case "certain: boolean query" `Quick test_certain_boolean;
    Alcotest.test_case "certain: INDs refused" `Quick test_certain_rejects_inds;
    Alcotest.test_case "witness: self-join tuple used twice" `Quick
      test_selfjoin_single_tid_witness;
    Alcotest.test_case "certain: warm read allocates O(1) per witness" `Quick
      test_warm_read_allocation;
    Alcotest.test_case "dpll: propagation allocates nothing per clause" `Quick
      test_propagation_allocation;
    Alcotest.test_case "dpll: add_clause and rollback allocate nothing per occurrence"
      `Quick test_add_rollback_allocation;
    Alcotest.test_case "certain: clean witness skips SAT" `Quick
      test_clean_witness_skips_sat;
    Alcotest.test_case "engine: auto routes coNP tier to SAT" `Quick
      test_engine_auto_routes_to_sat;
    Alcotest.test_case "engine: method=sat on rewritable query" `Quick
      test_engine_sat_on_rewritable_query;
    Alcotest.test_case "engine: auto routes unrewritable queries to SAT"
      `Quick test_engine_plans_sat_for_unrewritable;
    Alcotest.test_case "engine: unsafe query refused on the SAT route" `Quick
      test_unsafe_query_refused;
    Alcotest.test_case "theory: size constant across queries" `Quick
      test_theory_size_constant;
    Alcotest.test_case "theory: sized by the conflicts" `Quick
      test_theory_sized_by_conflicts;
    Alcotest.test_case "theory: cold build span, no conflict graph" `Quick
      test_cold_theory_span;
    Alcotest.test_case "theory: patched by updates, rebuilt when dead" `Quick
      test_patch_then_dead_clause_rebuild;
    Alcotest.test_case "theory: maximality clause behind a wide edge" `Quick
      test_maximality_behind_wide_edge;
    Alcotest.test_case "engine: declined rewriting reports SAT" `Quick
      test_declined_rewriting_reports_sat;
    Alcotest.test_case "engine: NULL fallback is SAT" `Quick
      test_null_fallback_is_sat;
    Alcotest.test_case "engine: a NULL block mate declines the rewriting"
      `Quick test_null_block_mate_declines;
    Alcotest.test_case "engine: a forced key rewriting refuses a NULL"
      `Quick test_forced_key_rewriting_declines_null;
    Alcotest.test_case "engine: C and union queries report their branch"
      `Quick test_c_and_union_report_branch;
    QCheck_alcotest.to_alcotest prop_sat_equals_enum_keys;
    QCheck_alcotest.to_alcotest prop_sat_equals_enum_denial;
    QCheck_alcotest.to_alcotest prop_sat_equals_enum_chain;
    QCheck_alcotest.to_alcotest prop_sat_equals_enum_nulls;
    QCheck_alcotest.to_alcotest prop_auto_equals_enum;
    QCheck_alcotest.to_alcotest prop_auto_equals_enum_nulls;
    QCheck_alcotest.to_alcotest prop_sat_equals_enum_unions;
    Alcotest.test_case "engine: unions on SAT enumerate no repair" `Quick
      test_union_on_sat_enumerates_nothing;
    QCheck_alcotest.to_alcotest prop_probe_equals_selector;
    Alcotest.test_case "probe encoding: every witness kind is drawn" `Quick
      test_probe_kinds_drawn;
  ]
