module Dpll = Sat.Dpll
module Hs = Sat.Hitting_set

let check = Alcotest.check

let test_sat_simple () =
  let s = Dpll.create () in
  let a = Dpll.fresh_var s and b = Dpll.fresh_var s in
  Dpll.add_clause s [| a; b |];
  Dpll.add_clause s [| -a |];
  (match Dpll.solve s with
  | None -> Alcotest.fail "satisfiable"
  | Some m ->
      check Alcotest.bool "a false" false m.(a);
      check Alcotest.bool "b true" true m.(b));
  Dpll.add_clause s [| -b |];
  check Alcotest.bool "now unsat" false (Dpll.satisfiable s)

let test_empty_clause () =
  let s = Dpll.create () in
  Dpll.add_clause s [||];
  check Alcotest.bool "empty clause unsat" false (Dpll.satisfiable s)

let test_assumptions () =
  let s = Dpll.create () in
  let a = Dpll.fresh_var s and b = Dpll.fresh_var s in
  Dpll.add_clause s [| a; b |];
  check Alcotest.bool "assume -a -b conflicts" false
    (Dpll.satisfiable ~assumptions:[ -a; -b ] s);
  check Alcotest.bool "assume -a ok" true (Dpll.satisfiable ~assumptions:[ -a ] s)

let test_enumerate () =
  let s = Dpll.create () in
  let a = Dpll.fresh_var s and b = Dpll.fresh_var s in
  Dpll.add_clause s [| a; b |];
  let models = Dpll.enumerate s in
  check Alcotest.int "three models of a∨b" 3 (List.length models);
  let proj = Dpll.enumerate ~project:[ a ] s in
  check Alcotest.int "two projections on a" 2 (List.length proj);
  let limited = Dpll.enumerate ~limit:1 s in
  check Alcotest.int "limit respected" 1 (List.length limited)

let test_enumerate_count_pigeons () =
  (* 3 pigeons, 3 holes, exactly-one encodings: 6 permutation models. *)
  let s = Dpll.create () in
  let var = Array.init 3 (fun _ -> Array.init 3 (fun _ -> Dpll.fresh_var s)) in
  for p = 0 to 2 do
    Dpll.add_clause s [| var.(p).(0); var.(p).(1); var.(p).(2) |];
    for h = 0 to 2 do
      for h' = h + 1 to 2 do
        Dpll.add_clause s [| -var.(p).(h); -var.(p).(h') |]
      done
    done
  done;
  for h = 0 to 2 do
    for p = 0 to 2 do
      for p' = p + 1 to 2 do
        Dpll.add_clause s [| -var.(p).(h); -var.(p').(h) |]
      done
    done
  done;
  check Alcotest.int "6 permutations" 6 (Dpll.count s)

let test_minimize () =
  let s = Dpll.create () in
  let vs = List.init 4 (fun _ -> Dpll.fresh_var s) in
  (match vs with
  | [ a; b; c; d ] ->
      Dpll.add_clause s [| a; b |];
      Dpll.add_clause s [| b; c |];
      Dpll.add_clause s [| c; d |];
      (match Dpll.minimize ~soft:vs s with
      | None -> Alcotest.fail "sat"
      | Some (cost, m) ->
          check Alcotest.int "vertex cover of path is 2" 2 cost;
          (* Any cover of size 2 is fine ({b,c} or {b,d}). *)
          check Alcotest.bool "model covers all edges" true
            ((m.(a) || m.(b)) && (m.(b) || m.(c)) && (m.(c) || m.(d))))
  | _ -> assert false)

let test_minimize_zero () =
  let s = Dpll.create () in
  let a = Dpll.fresh_var s and b = Dpll.fresh_var s in
  Dpll.add_clause s [| a; -b |];
  match Dpll.minimize ~soft:[ a; b ] s with
  | Some (0, _) -> ()
  | _ -> Alcotest.fail "all-false model exists"

let sorted l = List.sort compare l

let test_hitting_minimal () =
  (* Figure 1's hypergraph: vertices A=1 B=2 C=3 D=4 E=5; edges {B,E},
     {B,C,D}, {A,C}. *)
  let edges = [ [ 2; 5 ]; [ 2; 3; 4 ]; [ 1; 3 ] ] in
  let hss = List.map sorted (Hs.minimal edges) |> sorted in
  check
    Alcotest.(list (list int))
    "minimal hitting sets"
    (sorted [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 5 ]; [ 1; 4; 5 ] ])
    hss;
  List.iter
    (fun h -> check Alcotest.bool "each is minimal" true (Hs.is_minimal_hitting edges h))
    hss

let test_hitting_minimum () =
  let edges = [ [ 2; 5 ]; [ 2; 3; 4 ]; [ 1; 3 ] ] in
  (match Hs.minimum edges with
  | None -> Alcotest.fail "hittable"
  | Some h -> check Alcotest.int "minimum size 2" 2 (List.length h));
  (* The paper's Example 4.1: exactly three C-repairs (D2, D3, D4). *)
  check Alcotest.int "three minimum hitting sets" 3 (List.length (Hs.minimum_all edges))

let test_hitting_edge_cases () =
  check Alcotest.(list (list int)) "no edges: empty hs" [ [] ] (Hs.minimal []);
  check Alcotest.(option (list int)) "no edges minimum" (Some []) (Hs.minimum []);
  check Alcotest.(list (list int)) "empty edge: unhittable" [] (Hs.minimal [ [] ]);
  check Alcotest.(option (list int)) "empty edge minimum" None (Hs.minimum [ [ 1 ]; [] ])

let prop_minimal_hitting_sets_are_minimal =
  QCheck.Test.make ~count:200 ~name:"minimal hitting sets hit and are minimal"
    QCheck.(
      list_of_size (Gen.int_range 1 5)
        (list_of_size (Gen.int_range 1 4) (int_range 1 8)))
    (fun edges ->
      let hss = Hs.minimal edges in
      List.for_all (fun h -> Hs.is_minimal_hitting edges h) hss)

let prop_minimum_le_minimal =
  QCheck.Test.make ~count:200 ~name:"minimum size is the least minimal size"
    QCheck.(
      list_of_size (Gen.int_range 1 5)
        (list_of_size (Gen.int_range 1 4) (int_range 1 8)))
    (fun edges ->
      match Hs.minimum edges with
      | None -> Hs.minimal edges = []
      | Some h ->
          let sizes = List.map List.length (Hs.minimal edges) in
          List.length h = List.fold_left min max_int sizes)

let suite =
  [
    Alcotest.test_case "basic solving" `Quick test_sat_simple;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "model enumeration" `Quick test_enumerate;
    Alcotest.test_case "pigeonhole permutations" `Quick test_enumerate_count_pigeons;
    Alcotest.test_case "branch-and-bound minimization" `Quick test_minimize;
    Alcotest.test_case "zero-cost minimization" `Quick test_minimize_zero;
    Alcotest.test_case "minimal hitting sets (Fig 1)" `Quick test_hitting_minimal;
    Alcotest.test_case "minimum hitting sets (Fig 1)" `Quick test_hitting_minimum;
    Alcotest.test_case "hitting set edge cases" `Quick test_hitting_edge_cases;
    QCheck_alcotest.to_alcotest prop_minimal_hitting_sets_are_minimal;
    QCheck_alcotest.to_alcotest prop_minimum_le_minimal;
  ]
