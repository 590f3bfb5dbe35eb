(* cqa-fast equivalence suites: every indexed/parallel fast path must be
   observationally identical to the naive computation it replaces. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Tid = Relational.Tid
open Logic

let check = Alcotest.check

(* Values in 0..3 force join collisions; 4 encodes NULL so three-valued
   semantics get exercised on every path. *)
let value_of n = if n >= 4 then Value.Null else Value.int n

let schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ]

let instance_of (rs, ss) =
  Instance.of_rows schema
    [
      ("R", List.map (fun (a, b) -> [ value_of a; value_of b ]) rs);
      ("S", List.map (fun (b, c) -> [ value_of b; value_of c ]) ss);
    ]

let arb_db =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 0 8) (pair (int_range 0 4) (int_range 0 4)))
        (list_size (int_range 0 8) (pair (int_range 0 4) (int_range 0 4))))
    ~print:(fun (rs, ss) ->
      let row (a, b) = Printf.sprintf "%d,%d" a b in
      Printf.sprintf "R=%s S=%s"
        (String.concat ";" (List.map row rs))
        (String.concat ";" (List.map row ss)))

(* --- indexed join evaluation vs the naive oracle --------------------- *)

(* The join-heavy shapes: [Cq.answers] joins through hashed key columns,
   the oracle's nested loops compare every pair of rows. *)
let prop_indexed_join_eq =
  QCheck.Test.make ~count:300 ~name:"indexed Cq.answers = naive Cq.answers"
    arb_db (fun db_spec ->
      let db = instance_of db_spec in
      List.for_all
        (fun (q : Cq.t) -> Cq.answers q db = Test_oracle.oracle_answers q db)
        (List.filter
           (fun (q : Cq.t) -> List.mem q.name [ "join"; "const"; "selfjoin"; "triangle" ])
           Test_oracle.fixed_queries))

(* --- formula evaluation vs the naive oracle -------------------------- *)

(* [Formula.holds] finds candidate rows through lookups private to the
   call, grouped by the bound positions; the oracle's nested loops group
   nothing. *)
let prop_formula_holds_eq =
  QCheck.Test.make ~count:300 ~name:"Formula.holds = naive oracle" arb_db
    (fun db_spec ->
      let db = instance_of db_spec in
      List.for_all
        (fun (q : Cq.t) ->
          let b = Cq.make ~name:"b" [] q.body ~comps:q.comps in
          Formula.holds db (Formula.of_cq b) = (Test_oracle.oracle_answers b db <> []))
        Test_oracle.fixed_queries)

(* --- bucketed vs pairwise violation detection ----------------------- *)

let vschema = Schema.of_list [ ("T", [ "k"; "v"; "w" ]) ]

let arb_vdb =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 10)
        (triple (int_range 0 3) (int_range 0 4) (int_range 0 2)))
    ~print:(fun rows ->
      String.concat ";"
        (List.map (fun (k, v, w) -> Printf.sprintf "%d,%d,%d" k v w) rows))

(* Key and FD witnesses found through hashed buckets against every pair
   of tuples the oracle's nested loop matches. *)
let prop_bucketed_violations_eq =
  QCheck.Test.make ~count:300 ~name:"bucketed violations = pairwise" arb_vdb
    (fun rows ->
      let db =
        Instance.of_rows vschema
          [
            ( "T",
              List.map
                (fun (k, v, w) -> [ value_of k; value_of v; Value.int w ])
                rows );
          ]
      in
      let ics =
        [ Constraints.Ic.key ~rel:"T" [ 0 ];
          Constraints.Ic.fd ~rel:"T" ~lhs:[ 1 ] ~rhs:[ 2 ] ]
      in
      let pairwise =
        List.concat_map
          (fun ic ->
            List.concat_map
              (fun (d : Constraints.Ic.denial) ->
                List.map
                  (fun s -> (d.name, Tid.Set.elements s))
                  (Test_oracle.oracle_violation_sets db d))
              (Option.get (Constraints.Ic.to_denials vschema ic)))
          ics
      in
      let bucketed =
        List.map
          (fun (w : Constraints.Violation.witness) ->
            (w.ic_name, Tid.Set.elements w.tids))
          (Constraints.Violation.all db vschema ics)
      in
      List.sort_uniq compare bucketed = List.sort_uniq compare pairwise
      && List.length bucketed = List.length (List.sort_uniq compare bucketed))

(* --- Par.map = List.map --------------------------------------------- *)

let prop_par_map_eq =
  QCheck.Test.make ~count:100 ~name:"Par.map = List.map"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) small_int)
    (fun xs ->
      let f x = (x * x) - (3 * x) in
      Par.map ~jobs:4 f xs = List.map f xs
      && Par.filter_map ~jobs:4
           (fun x -> if x mod 2 = 0 then Some (f x) else None)
           xs
         = List.filter_map (fun x -> if x mod 2 = 0 then Some (f x) else None) xs)

(* Small workloads must bypass the domain pool entirely: handing 2-3
   tasks to the workers costs more in lock hand-offs and wake-ups than
   the work itself (the b1 pairs=2 regression).  [par.tasks] counts
   chunks given to the pool, so it must not move below the cutoff. *)
let test_par_cutoff () =
  let c = Obs.Counter.make "par.tasks" in
  let saved = Par.parallel_cutoff () in
  Par.set_parallel_cutoff 4;
  Fun.protect ~finally:(fun () -> Par.set_parallel_cutoff saved) @@ fun () ->
  let f x = (2 * x) + 1 in
  let small = [ 3; 4; 5 ] in
  let before = Obs.Counter.value c in
  check Alcotest.(list int) "below cutoff: same results" (List.map f small)
    (Par.map ~jobs:4 f small);
  check Alcotest.int "below cutoff: pool untouched" before (Obs.Counter.value c);
  let big = List.init 4 Fun.id in
  check Alcotest.(list int) "at cutoff: same results" (List.map f big)
    (Par.map ~jobs:4 f big);
  check Alcotest.bool "at cutoff: pool engaged" true
    (Obs.Counter.value c > before)

let test_par_exception () =
  match Par.map ~jobs:4 (fun x -> if x = 7 then failwith "boom" else x)
          (List.init 40 Fun.id)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> check Alcotest.string "message" "boom" m

(* --- per-component hitting-set enumeration -------------------------- *)

let test_components_partition () =
  let edges = [ [ 1; 2 ]; [ 3; 4 ]; [ 2; 5 ]; [] ] in
  check
    Alcotest.(list (list (list int)))
    "components" [ [ [ 1; 2 ]; [ 2; 5 ] ]; [ [ 3; 4 ] ]; [ [] ] ]
    (Sat.Hitting_set.components edges)

let arb_edges =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 6) (list_size (int_range 1 3) (int_range 0 9)))
    ~print:(fun edges ->
      String.concat ";"
        (List.map
           (fun e -> "{" ^ String.concat "," (List.map string_of_int e) ^ "}")
           edges))

let prop_components_compose =
  QCheck.Test.make ~count:200
    ~name:"minimal hitting sets = cross product over components" arb_edges
    (fun edges ->
      let direct = Sat.Hitting_set.minimal edges in
      let composed =
        List.fold_left
          (fun acc hss ->
            List.concat_map
              (fun a -> List.map (fun h -> List.sort_uniq compare (a @ h)) hss)
              acc)
          [ [] ]
          (List.map Sat.Hitting_set.minimal (Sat.Hitting_set.components edges))
      in
      let norm hss = List.sort_uniq compare (List.map (List.sort compare) hss) in
      norm direct = norm composed)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_indexed_join_eq;
    QCheck_alcotest.to_alcotest prop_formula_holds_eq;
    QCheck_alcotest.to_alcotest prop_bucketed_violations_eq;
    QCheck_alcotest.to_alcotest prop_par_map_eq;
    Alcotest.test_case "Par.map small-workload cutoff" `Quick test_par_cutoff;
    Alcotest.test_case "Par.map re-raises chunk exceptions" `Quick
      test_par_exception;
    Alcotest.test_case "Hitting_set.components partitions edges" `Quick
      test_components_partition;
    QCheck_alcotest.to_alcotest prop_components_compose;
  ]
