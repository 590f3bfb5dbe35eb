module Value = Relational.Value
module Instance = Relational.Instance
module Schema = Relational.Schema
module Tid = Relational.Tid
module Ic = Constraints.Ic
module Violation = Constraints.Violation
module Cg = Constraints.Conflict_graph
open Paper_examples

let check = Alcotest.check

let test_ind_violation () =
  check Alcotest.bool "ID violated" false
    (Violation.is_consistent Supply.instance Supply.schema [ Supply.ind ]);
  let dangling = Violation.of_ind Supply.instance
      (match Supply.ind with Ic.Ind i -> i | _ -> assert false)
  in
  check Alcotest.int "one dangling tuple" 1 (List.length dangling)

let test_ind_null_vacuous () =
  let db =
    Instance.of_rows Supply.schema
      [ ("Supply", [ [ v "C1"; v "R1"; Value.Null ] ]); ("Articles", []) ]
  in
  check Alcotest.bool "NULL fk is vacuously fine" true
    (Violation.is_consistent db Supply.schema [ Supply.ind ])

let test_key_to_fd_and_violation () =
  check Alcotest.bool "key violated" false
    (Violation.is_consistent Employee.instance Employee.schema
       [ Employee.key ]);
  let ws = Violation.of_ic Employee.instance Employee.schema Employee.key in
  check Alcotest.int "one conflicting pair" 1 (List.length ws);
  let w = List.hd ws in
  check Alcotest.int "pair of tuples" 2 (Tid.Set.cardinal w.Violation.tids)

let test_fd_null_does_not_violate () =
  let db =
    Instance.of_rows Employee.schema
      [ ("Employee", [ [ Value.Null; i 5 ]; [ Value.Null; i 8 ] ]) ]
  in
  check Alcotest.bool "NULL keys do not clash" true
    (Violation.is_consistent db Employee.schema [ Employee.key ])

let test_denial_violation () =
  let ws = Violation.of_ic Denial.instance Denial.schema Denial.kappa in
  (* κ is violated by (S(a4),R(a4,a3),S(a3)), (S(a3),R(a3,a3),S(a3)) and
     (S(a2),R(a2,a1),S(a1))? — no S(a1); exactly the first two. *)
  check Alcotest.int "two violation witnesses" 2 (List.length ws)

let test_conflict_graph_fig1 () =
  let g = Cg.build Hypergraph.instance Hypergraph.schema Hypergraph.dcs in
  check Alcotest.int "five vertices" 5 (Tid.Set.cardinal g.Cg.vertices);
  check Alcotest.int "three edges" 3 (List.length g.Cg.edges);
  let sizes = List.sort compare (List.map Tid.Set.cardinal g.Cg.edges) in
  check Alcotest.(list int) "edge sizes" [ 2; 2; 3 ] sizes

let test_conflict_graph_rejects_ind () =
  Alcotest.check_raises "IND not allowed"
    (Invalid_argument
       "Conflict_graph.build: ind:Supply[2]\xe2\x8a\x86Articles[0] is not a denial-class constraint")
    (fun () -> ignore (Cg.build Supply.instance Supply.schema [ Supply.ind ]))

let test_cfd () =
  (* Section 6's example: [CC=44, Zip] -> [Street]. *)
  let schema =
    Schema.of_list
      [ ("Cust", [ "cc"; "ac"; "phone"; "name"; "street"; "city"; "zip" ]) ]
  in
  let row cc ac ph nm st ct zp = [ i cc; i ac; v ph; v nm; v st; v ct; v zp ] in
  let db =
    Instance.of_rows schema
      [
        ( "Cust",
          [
            row 44 131 "1234567" "mike" "mayfield" "NYC" "EH4 8LE";
            row 44 131 "3456789" "rick" "crichton" "NYC" "EH4 8LE";
            row 01 908 "3456789" "joe" "mtn ave" "NYC" "07974";
          ] );
      ]
  in
  let fd1 = Ic.fd ~rel:"Cust" ~lhs:[ 0; 1; 2 ] ~rhs:[ 4; 5; 6 ] in
  let fd2 = Ic.fd ~rel:"Cust" ~lhs:[ 0; 1 ] ~rhs:[ 5 ] in
  check Alcotest.bool "plain FD 1 holds" true
    (Violation.is_consistent db schema [ fd1 ]);
  check Alcotest.bool "plain FD 2 holds" true
    (Violation.is_consistent db schema [ fd2 ]);
  let cfd =
    Ic.cfd ~rel:"Cust" ~lhs:[ 0; 6 ] ~rhs:[ 4 ]
      ~pat:[ (0, Some (Value.int 44)); (6, None); (4, None) ]
  in
  check Alcotest.bool "CFD violated" false
    (Violation.is_consistent db schema [ cfd ]);
  let ws = Violation.of_ic db schema cfd in
  check Alcotest.int "one CFD conflict" 1 (List.length ws)

let test_cfd_constant_pattern () =
  let schema = Schema.of_list [ ("T", [ "country"; "capital" ]) ] in
  let db =
    Instance.of_rows schema
      [ ("T", [ [ v "nl"; v "amsterdam" ]; [ v "nl"; v "rotterdam" ] ]) ]
  in
  (* country = nl forces capital = amsterdam (single-tuple CFD). *)
  let cfd =
    Ic.cfd ~rel:"T" ~lhs:[ 0 ] ~rhs:[ 1 ]
      ~pat:[ (0, Some (v "nl")); (1, Some (v "amsterdam")) ]
  in
  check Alcotest.bool "constant CFD violated" false
    (Violation.is_consistent db schema [ cfd ]);
  let ws = Violation.of_ic db schema cfd in
  check Alcotest.int "single-tuple violation" 1 (List.length ws)

let test_to_clauses () =
  let clauses = Ic.to_clauses Employee.schema Employee.key in
  check Alcotest.int "one clause for 2-attribute key" 1 (List.length clauses);
  let ind_clauses = Ic.to_clauses Supply.schema Supply.ind in
  check Alcotest.int "full IND has a clause" 1 (List.length ind_clauses);
  (* A tgd with an existential head position has no clausal form. *)
  let schema2 =
    Schema.of_list [ ("Supply", [ "c"; "r"; "i" ]); ("Art2", [ "item"; "cost" ]) ]
  in
  let tgd = Ic.ind ~sub:("Supply", [ 2 ]) ~sup:("Art2", [ 0 ]) in
  check Alcotest.int "existential tgd: no clause" 0
    (List.length (Ic.to_clauses schema2 tgd))

let test_all_hold () =
  check Alcotest.bool "hypergraph dcs all violated somewhere" false
    (Violation.is_consistent Hypergraph.instance Hypergraph.schema
       Hypergraph.dcs);
  check Alcotest.bool "empty ics hold" true
    (Violation.is_consistent Hypergraph.instance Hypergraph.schema [])

(* The memo behind the conflict-graph and SAT-theory caches keeps its
   most recently used entry first: a hit moves its entry to the front,
   so it survives the 7 misses that fill the rest of the 8 entries and
   is evicted only by the 8th. *)
let test_memo_hit_refreshes () =
  let schema = Schema.of_list [ ("T", [ "k" ]) ] in
  let inst i = Instance.of_rows schema [ ("T", [ [ Value.int i ] ]) ] in
  let memo =
    Constraints.Memo.create ~hits:(Obs.Counter.make "test.memo_hits") ()
  in
  let builds = ref 0 in
  let get i =
    Constraints.Memo.find_or_build memo (inst i) [] (fun () ->
        incr builds;
        i)
  in
  for i = 0 to 7 do
    ignore (get i)
  done;
  check Alcotest.int "eight misses" 8 !builds;
  check Alcotest.int "oldest entry still cached" 0 (get 0);
  check Alcotest.int "a hit builds nothing" 8 !builds;
  for i = 8 to 14 do
    ignore (get i)
  done;
  ignore (get 0);
  check Alcotest.int "the hit entry survived 7 misses" 15 !builds;
  for i = 15 to 22 do
    ignore (get i)
  done;
  ignore (get 0);
  check Alcotest.int "8 misses evict it" 24 !builds

(* A patch moves the base's entry: the new instance hits, the base
   misses, and a refused patch ([None]) falls back to the build. *)
let test_memo_patch_moves () =
  let schema = Schema.of_list [ ("T", [ "k" ]) ] in
  let inst i = Instance.of_rows schema [ ("T", [ [ Value.int i ] ]) ] in
  let memo =
    Constraints.Memo.create ~hits:(Obs.Counter.make "test.memo_patch_hits") ()
  in
  let builds = ref 0 in
  let get ?patch i =
    Constraints.Memo.find_or_build ?patch memo (inst i) [] (fun () ->
        incr builds;
        i)
  in
  ignore (get 1);
  check Alcotest.int "patched from 1" 101
    (get ~patch:(inst 1, fun v -> Some (v + 100)) 2);
  check Alcotest.int "no build for the patch" 1 !builds;
  check Alcotest.int "the new key hits" 101 (get 2);
  check Alcotest.int "the base no longer hits" 1 (get 1);
  check Alcotest.int "so it was built" 2 !builds;
  check Alcotest.int "a refused patch builds" 3
    (get ~patch:(inst 1, fun _ -> None) 3);
  check Alcotest.int "no base entry: build" 4
    (get ~patch:(inst 1, fun v -> Some v) 4);
  check Alcotest.int "builds" 4 !builds

(* Key groups arriving out of tid order and interleaved: the rows are
   grouped by a sort, and each group keeps tid order, so every pair
   comes out [lo < hi] and groups come out in key order. *)
let test_fd_conflicts_unsorted () =
  let schema = Schema.of_list [ ("R", [ "k"; "v" ]) ] in
  let db =
    Instance.of_rows schema
      [
        ( "R",
          List.map
            (fun (k, x) -> [ Value.int k; Value.int x ])
            [ (3, 1); (2, 2); (3, 3); (1, 4); (2, 5); (1, 6); (3, 7) ] );
      ]
  in
  let f = Option.get (Ic.as_fd schema (Ic.key ~rel:"R" [ 0 ])) in
  let pairs = ref [] in
  Violation.fd_conflicts db f (fun lo hi _ ->
      pairs := (Tid.to_int lo, Tid.to_int hi) :: !pairs);
  check
    Alcotest.(list (pair int int))
    "groups in key order, pairs in tid order"
    [ (4, 6); (2, 5); (1, 3); (1, 7); (3, 7) ]
    (List.rev !pairs);
  let pinned = ref [] in
  Violation.fd_conflicts ~pinned:(Tid.of_int 3) db f (fun lo hi _ ->
      pinned := (Tid.to_int lo, Tid.to_int hi) :: !pinned);
  check
    Alcotest.(list (pair int int))
    "pinned: the tuple's group only" [ (1, 3); (3, 7) ] (List.rev !pinned)

(* [Violation.of_ind]'s antijoin against a nested loop over the tuples,
   with NULL cells on either side and positions repeated on either side:
   a sub tuple dangles when no NULL is in its key and no sup tuple
   carries that key. *)
let prop_of_ind_nested_loop =
  let schema = Schema.of_list [ ("R", [ "a"; "b"; "c" ]); ("S", [ "a"; "b" ]) ] in
  let value_of n = if n >= 3 then Value.Null else Value.int n in
  let inds =
    [
      { Ic.sub = ("R", [ 0 ]); sup = ("S", [ 1 ]) };
      { Ic.sub = ("R", [ 1; 2 ]); sup = ("S", [ 0; 1 ]) };
      { Ic.sub = ("S", [ 0; 0 ]); sup = ("R", [ 1; 2 ]) };
      { Ic.sub = ("S", [ 0; 1 ]); sup = ("R", [ 2; 2 ]) };
      { Ic.sub = ("S", [ 0 ]); sup = ("S", [ 1 ]) };
    ]
  in
  let nested_loop inst (i : Ic.ind) =
    let project ps (row : Value.t array) = List.map (fun p -> row.(p)) ps in
    let sup_rows = Instance.rows inst ~rel:(fst i.sup) in
    List.filter_map
      (fun (tid, row) ->
        let k = project (snd i.sub) row in
        if
          List.exists Value.is_null k
          || List.exists
               (fun r -> List.for_all2 Value.equal k (project (snd i.sup) r))
               sup_rows
        then None
        else Some tid)
      (Instance.tuples inst ~rel:(fst i.sub))
  in
  QCheck.Test.make ~count:300 ~name:"of_ind = nested loop, with NULLs"
    QCheck.(
      pair
        (small_list (triple (int_bound 3) (int_bound 3) (int_bound 3)))
        (small_list (pair (int_bound 3) (int_bound 3))))
    (fun (rs, ss) ->
      let inst =
        Instance.of_rows schema
          [
            ("R", List.map (fun (a, b, c) -> List.map value_of [ a; b; c ]) rs);
            ("S", List.map (fun (a, b) -> List.map value_of [ a; b ]) ss);
          ]
      in
      List.for_all (fun i -> Violation.of_ind inst i = nested_loop inst i) inds)

let suite =
  [
    Alcotest.test_case "IND violation (Ex 2.1)" `Quick test_ind_violation;
    Alcotest.test_case "IND with NULL is vacuous" `Quick test_ind_null_vacuous;
    Alcotest.test_case "key violation (Ex 3.3)" `Quick test_key_to_fd_and_violation;
    Alcotest.test_case "FD ignores NULL" `Quick test_fd_null_does_not_violate;
    Alcotest.test_case "denial violations (Ex 3.5)" `Quick test_denial_violation;
    Alcotest.test_case "conflict hypergraph (Fig 1)" `Quick test_conflict_graph_fig1;
    Alcotest.test_case "conflict graph rejects INDs" `Quick
      test_conflict_graph_rejects_ind;
    Alcotest.test_case "CFDs (Sec 6 example)" `Quick test_cfd;
    Alcotest.test_case "CFD with constant pattern" `Quick test_cfd_constant_pattern;
    Alcotest.test_case "clausal forms" `Quick test_to_clauses;
    Alcotest.test_case "all_hold" `Quick test_all_hold;
    Alcotest.test_case "memo: a hit refreshes its entry" `Quick
      test_memo_hit_refreshes;
    Alcotest.test_case "memo: a patch moves its entry" `Quick
      test_memo_patch_moves;
    Alcotest.test_case "key groups out of tid order" `Quick
      test_fd_conflicts_unsorted;
    QCheck_alcotest.to_alcotest prop_of_ind_nested_loop;
  ]
