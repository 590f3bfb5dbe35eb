(* Further-development modules in lib/repairs: counting, prioritized
   repairs, operational sampling, incremental maintenance, aggregation. *)

module Instance = Relational.Instance
module Schema = Relational.Schema
module Value = Relational.Value
module Tid = Relational.Tid
module Fact = Relational.Fact
module Count = Repairs.Count
module Prioritized = Repairs.Prioritized
module Operational = Repairs.Operational
module Incremental = Repairs.Incremental
module Aggregate = Repairs.Aggregate
module P = Workload.Paper

let check = Alcotest.check
let flt = Alcotest.float 1e-9

(* --- counting --- *)

let test_count_closed_form () =
  let db, key = Workload.Gen.key_conflict_chain ~seed:1 ~pairs:5 () in
  let schema = Instance.schema db in
  check Alcotest.int "2^5 s-repairs" 32 (Count.s_repairs db schema [ key ]);
  check Alcotest.int "2^5 c-repairs" 32 (Count.c_repairs db schema [ key ]);
  check Alcotest.(option int) "closed form applies" (Some 32)
    (Count.closed_form_keys db schema [ key ])

let test_count_hypergraph () =
  check Alcotest.int "Fig 1: 4 S-repairs" 4
    (Count.s_repairs P.Hypergraph.instance P.Hypergraph.schema P.Hypergraph.dcs);
  check Alcotest.int "Fig 1: 3 C-repairs" 3
    (Count.c_repairs P.Hypergraph.instance P.Hypergraph.schema P.Hypergraph.dcs);
  check Alcotest.(option int) "no closed form for DCs" None
    (Count.closed_form_keys P.Hypergraph.instance P.Hypergraph.schema
       P.Hypergraph.dcs)

(* [pairs] key-conflicting pairs: 2^pairs repairs, past [max_int] from
   62 pairs on.  The document's lines, for the CLI and the server. *)
let pairs_doc pairs =
  "relation T(k, v)" :: "key T(k)"
  :: List.concat
       (List.init pairs (fun i ->
            [ Printf.sprintf "row T(%d, a)" i; Printf.sprintf "row T(%d, b)" i ]))

(* The closed form multiplies block sizes with an overflow check: 2^61
   is exact, 2^62 and 2^63 raise an error naming the bound rather than
   wrapping to a negative count or 0.  The CLI prints that error to
   stderr and exits 2. *)
let test_count_overflow () =
  let bound = "repair count exceeds max_int = 4611686018427387903 (2^62 - 1)" in
  let count f pairs =
    let doc = Cqa.Parse.document_of_string (String.concat "\n" (pairs_doc pairs)) in
    f doc.Cqa.Parse.instance doc.schema doc.ics
  in
  check Alcotest.int "2^61 exact" (1 lsl 61) (count Count.s_repairs 61);
  check Alcotest.int "2^61 exact (C)" (1 lsl 61) (count Count.c_repairs 61);
  List.iter
    (fun pairs ->
      Alcotest.check_raises (Printf.sprintf "%d pairs overflow" pairs)
        (Count.Overflow bound) (fun () -> ignore (count Count.s_repairs pairs)))
    [ 62; 63 ];
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/cqa_cli.exe"
  in
  let run pairs =
    let input = Filename.temp_file "pairs" ".cqa" in
    let out = Filename.temp_file "count" ".out" in
    let err = Filename.temp_file "count" ".err" in
    Out_channel.with_open_text input (fun oc ->
        output_string oc (String.concat "\n" (pairs_doc pairs) ^ "\n"));
    let status =
      Sys.command
        (Printf.sprintf "%s count %s > %s 2> %s" (Filename.quote cli)
           (Filename.quote input) (Filename.quote out) (Filename.quote err))
    in
    let read f = In_channel.with_open_text f In_channel.input_all in
    let r = (status, read out, read err) in
    List.iter Sys.remove [ input; out; err ];
    r
  in
  let status, out, _ = run 61 in
  check Alcotest.int "CLI 61 pairs: exit 0" 0 status;
  check Alcotest.string "CLI 61 pairs: 2^61"
    "S-repairs: 2305843009213693952\nC-repairs: 2305843009213693952\n" out;
  List.iter
    (fun pairs ->
      let status, out, err = run pairs in
      check Alcotest.int (Printf.sprintf "CLI %d pairs: exit 2" pairs) 2 status;
      check Alcotest.string (Printf.sprintf "CLI %d pairs: no count" pairs) ""
        out;
      check Alcotest.string
        (Printf.sprintf "CLI %d pairs: error names the bound" pairs)
        (bound ^ "\n") err)
    [ 62; 63 ]

let test_key_blocks () =
  let blocks =
    Count.key_blocks P.Employee.instance P.Employee.schema ~rel:"Employee"
      ~key:[ 0 ]
  in
  check Alcotest.(list int) "one block of two claimants" [ 2 ] blocks

let arb_rows =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 8) (pair (int_range 0 3) (int_range 0 3)))
    ~print:(fun rows ->
      String.concat ";" (List.map (fun (k, s) -> Printf.sprintf "%d,%d" k s) rows))

let schema_kv = Schema.of_list [ ("T", [ "k"; "v" ]) ]
let key_kv = Constraints.Ic.key ~rel:"T" [ 0 ]

let instance_of rows =
  Instance.of_rows schema_kv
    [ ("T", List.map (fun (k, s) -> [ Value.int k; Value.int s ]) rows) ]

let prop_count_matches_enumeration =
  QCheck.Test.make ~count:100 ~name:"closed-form count = enumeration count"
    arb_rows (fun rows ->
      let db = instance_of rows in
      Count.s_repairs db schema_kv [ key_kv ]
      = List.length (Repairs.S_repair.enumerate db schema_kv [ key_kv ]))

(* --- prioritized repairs --- *)

(* Employee key conflict: tids t1 = (page,5), t2 = (page,8). *)
let prefer_low_salary t t' =
  (* t1 (salary 5) preferred over t2 (salary 8) *)
  Tid.to_int t = 1 && Tid.to_int t' = 2

let test_prioritized_globally_optimal () =
  let opt =
    Prioritized.globally_optimal prefer_low_salary P.Employee.instance
      P.Employee.schema [ P.Employee.key ]
  in
  check Alcotest.int "one globally optimal repair" 1 (List.length opt);
  let r = List.hd opt in
  check Alcotest.bool "keeps the preferred tuple" true
    (Instance.mem_fact r.Repairs.Repair.repaired
       (Fact.make "Employee" [ Value.str "page"; Value.int 5 ]))

let test_prioritized_empty_priority () =
  let none _ _ = false in
  let all = Repairs.S_repair.enumerate P.Employee.instance P.Employee.schema [ P.Employee.key ] in
  let opt =
    Prioritized.globally_optimal none P.Employee.instance P.Employee.schema
      [ P.Employee.key ]
  in
  check Alcotest.int "no priority: all repairs optimal" (List.length all)
    (List.length opt)

let test_prioritized_containment () =
  (* Globally optimal ⊆ Pareto optimal for any priority. *)
  let p t t' = Tid.to_int t < Tid.to_int t' in
  let glob =
    Prioritized.globally_optimal p P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  let pareto =
    Prioritized.pareto_optimal p P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  check Alcotest.bool "global ⊆ pareto" true
    (List.for_all
       (fun g -> List.exists (fun q -> Repairs.Repair.equal g q) pareto)
       glob);
  check Alcotest.bool "some repair survives" true (glob <> [])

let test_greedy_completion () =
  (* Completion preferring t2 first keeps (page, 8). *)
  let r =
    Prioritized.greedy_completion
      ~order:[ Tid.of_int 2; Tid.of_int 1 ]
      P.Employee.instance P.Employee.schema [ P.Employee.key ]
  in
  check Alcotest.bool "keeps (page,8)" true
    (Instance.mem_fact r.Repairs.Repair.repaired
       (Fact.make "Employee" [ Value.str "page"; Value.int 8 ]));
  check Alcotest.bool "is an S-repair" true
    (Repairs.Check.is_s_repair ~original:P.Employee.instance P.Employee.schema
       [ P.Employee.key ] r.Repairs.Repair.repaired)

let test_prioritized_answers () =
  let rows =
    Prioritized.consistent_answers ~semantics:`Global prefer_low_salary
      P.Employee.instance P.Employee.schema [ P.Employee.key ]
      P.Employee.full_query
  in
  (* With the priority resolving the conflict, (page, 5) becomes certain. *)
  check Alcotest.int "three certain tuples" 3 (List.length rows)

(* --- operational sampling --- *)

let test_operational_sample_is_repair () =
  for seed = 0 to 9 do
    let r =
      Operational.sample_repair ~seed P.Denial.instance P.Denial.schema
        [ P.Denial.kappa ]
    in
    check Alcotest.bool "sampled result is an S-repair" true
      (Repairs.Check.is_s_repair ~original:P.Denial.instance P.Denial.schema
         [ P.Denial.kappa ] r.Repairs.Repair.repaired)
  done

let test_operational_probabilities () =
  let probs =
    Operational.answer_probability ~seed:7 ~samples:300 P.Employee.instance
      P.Employee.schema [ P.Employee.key ] P.Employee.names_query
  in
  let p name = List.assoc [ Value.str name ] probs in
  check flt "smith certain" 1.0 (p "smith");
  check flt "stowe certain" 1.0 (p "stowe");
  check flt "page certain (survives both repairs)" 1.0 (p "page");
  let probs_full =
    Operational.answer_probability ~seed:7 ~samples:300 P.Employee.instance
      P.Employee.schema [ P.Employee.key ] P.Employee.full_query
  in
  let p5 = List.assoc [ Value.str "page"; Value.int 5 ] probs_full in
  check Alcotest.bool "page,5 strictly between 0 and 1" true (p5 > 0.2 && p5 < 0.8)

let test_operational_probable_answers () =
  let rows =
    Operational.probable_answers ~seed:3 ~samples:200 ~threshold:0.9
      P.Employee.instance P.Employee.schema [ P.Employee.key ]
      P.Employee.names_query
  in
  check Alcotest.int "three high-probability names" 3 (List.length rows)

let test_operational_rejects_ind () =
  Alcotest.check_raises "IND rejected"
    (Invalid_argument "Operational: denial-class constraints only") (fun () ->
      ignore
        (Operational.sample_repair P.Supply.instance P.Supply.schema
           [ P.Supply.ind ]))

(* --- incremental maintenance --- *)

let test_incremental_insert_delete () =
  let clean =
    Instance.of_rows P.Employee.schema
      [ ("Employee", [ [ Value.str "page"; Value.int 5 ]; [ Value.str "smith"; Value.int 3 ] ]) ]
  in
  let t = Incremental.create clean P.Employee.schema [ P.Employee.key ] in
  check Alcotest.bool "initially consistent" true (Incremental.is_consistent t);
  let t, tid = Incremental.insert t (Fact.make "Employee" [ Value.str "page"; Value.int 8 ]) in
  check Alcotest.bool "conflict detected" false (Incremental.is_consistent t);
  check Alcotest.int "one edge" 1
    (List.length (Incremental.graph t).Constraints.Conflict_graph.edges);
  check Alcotest.int "two repairs" 2 (List.length (Incremental.s_repairs t));
  let t = Incremental.delete t tid in
  check Alcotest.bool "consistent after delete" true (Incremental.is_consistent t)

let test_incremental_matches_rebuild () =
  (* Random insertion sequences: the maintained graph equals a rebuild. *)
  let prop =
    QCheck.Test.make ~count:60 ~name:"incremental graph = rebuilt graph"
      arb_rows (fun rows ->
        let t =
          List.fold_left
            (fun t (k, s) ->
              fst (Incremental.insert t (Fact.make "T" [ Value.int k; Value.int s ])))
            (Incremental.create (Instance.create schema_kv) schema_kv [ key_kv ])
            rows
        in
        let rebuilt =
          Constraints.Conflict_graph.build (Incremental.instance t) schema_kv
            [ key_kv ]
        in
        let edges g =
          List.sort compare
            (List.map Tid.Set.elements
               g.Constraints.Conflict_graph.edges)
        in
        edges (Incremental.graph t) = edges rebuilt)
  in
  prop

let test_incremental_cqa () =
  let t =
    Incremental.create P.Employee.instance P.Employee.schema [ P.Employee.key ]
  in
  let rows = Incremental.consistent_answers t P.Employee.names_query in
  check Alcotest.int "same as engine" 3 (List.length rows)

(* --- aggregation --- *)

let test_aggregate_employee () =
  let range agg =
    Aggregate.range P.Employee.instance P.Employee.schema [ P.Employee.key ]
      ~rel:"Employee" agg
  in
  let sum = range (Aggregate.Sum 1) in
  check flt "sum glb = 3+7+5" 15.0 sum.Aggregate.glb;
  check flt "sum lub = 3+7+8" 18.0 sum.Aggregate.lub;
  let count = range Aggregate.Count_all in
  check flt "count glb" 3.0 count.Aggregate.glb;
  check flt "count lub" 3.0 count.Aggregate.lub;
  let mn = range (Aggregate.Min 1) in
  check flt "min glb" 3.0 mn.Aggregate.glb;
  check flt "min lub" 3.0 mn.Aggregate.lub;
  let mx = range (Aggregate.Max 1) in
  check flt "max glb" 7.0 mx.Aggregate.glb;
  check flt "max lub" 8.0 mx.Aggregate.lub

let test_aggregate_null_sum () =
  let db =
    Instance.of_rows schema_kv
      [ ("T", [ [ Value.int 1; Value.int 4 ]; [ Value.int 1; Value.Null ] ]) ]
  in
  let sum = Aggregate.range db schema_kv [ key_kv ] ~rel:"T" (Aggregate.Sum 1) in
  (* Electing the NULL claimant contributes 0. *)
  check flt "sum glb 0" 0.0 sum.Aggregate.glb;
  check flt "sum lub 4" 4.0 sum.Aggregate.lub

let prop_aggregate_closed_form =
  QCheck.Test.make ~count:100 ~name:"aggregate closed form = enumeration"
    arb_rows (fun rows ->
      let db = instance_of rows in
      List.for_all
        (fun agg ->
          let a = Aggregate.range db schema_kv [ key_kv ] ~rel:"T" agg in
          let b =
            Aggregate.range_by_enumeration db schema_kv [ key_kv ] ~rel:"T" agg
          in
          Float.abs (a.Aggregate.glb -. b.Aggregate.glb) < 1e-9
          && Float.abs (a.Aggregate.lub -. b.Aggregate.lub) < 1e-9)
        [ Aggregate.Count_all; Aggregate.Sum 1; Aggregate.Min 1; Aggregate.Max 1 ])

(* --- optimal (weighted) repairs --- *)

let test_optimal_keys () =
  (* Weigh (page, 8) heavier: the optimal repair keeps it. *)
  let weight tid = if Tid.to_int tid = 2 then 5.0 else 1.0 in
  match
    Repairs.Optimal.optimal_repair ~weight P.Employee.instance P.Employee.schema
      [ P.Employee.key ]
  with
  | None -> Alcotest.fail "repair exists"
  | Some r ->
      check Alcotest.bool "keeps (page,8)" true
        (Instance.mem_fact r.Repairs.Repair.repaired
           (Fact.make "Employee" [ Value.str "page"; Value.int 8 ]));
      check Alcotest.bool "is optimal" true
        (Repairs.Optimal.is_optimal ~weight P.Employee.instance
           P.Employee.schema [ P.Employee.key ] r)

let test_optimal_denials () =
  (* Make S(a3) very heavy: the optimal repair must keep it and delete the
     R tuples instead, even though that costs two deletions. *)
  let weight tid = if Tid.to_int tid = 6 then 10.0 else 1.0 in
  match
    Repairs.Optimal.optimal_repair ~weight P.Denial.instance P.Denial.schema
      [ P.Denial.kappa ]
  with
  | None -> Alcotest.fail "repair exists"
  | Some r ->
      check Alcotest.bool "keeps S(a3)" true
        (Instance.mem_fact r.Repairs.Repair.repaired
           (Fact.make "S" [ Value.str "a3" ]));
      check Alcotest.bool "is optimal" true
        (Repairs.Optimal.is_optimal ~weight P.Denial.instance P.Denial.schema
           [ P.Denial.kappa ] r)

let prop_optimal_matches_bruteforce =
  QCheck.Test.make ~count:80 ~name:"weighted optimal repair = brute force"
    arb_rows (fun rows ->
      let db = instance_of rows in
      (* Deterministic pseudo-weights from the tid. *)
      let weight tid = float_of_int (1 + (Tid.to_int tid * 7 mod 5)) in
      match Repairs.Optimal.optimal_repair ~weight db schema_kv [ key_kv ] with
      | None -> false
      | Some r -> Repairs.Optimal.is_optimal ~weight db schema_kv [ key_kv ] r)

let test_weighted_hitting_set () =
  (* Edge {1,2} with w(1)=5, w(2)=1: pick 2. *)
  let hs =
    Sat.Hitting_set.minimum_weighted
      ~weight:(fun v -> if v = 1 then 5.0 else 1.0)
      [ [ 1; 2 ] ]
  in
  check Alcotest.(option (list int)) "cheap vertex chosen" (Some [ 2 ]) hs

let suite =
  [
    Alcotest.test_case "optimal repair: keys" `Quick test_optimal_keys;
    Alcotest.test_case "optimal repair: denials" `Quick test_optimal_denials;
    QCheck_alcotest.to_alcotest prop_optimal_matches_bruteforce;
    Alcotest.test_case "weighted minimum hitting set" `Quick
      test_weighted_hitting_set;
    Alcotest.test_case "counting: closed form (2^k)" `Quick test_count_closed_form;
    Alcotest.test_case "counting: hypergraph (Fig 1)" `Quick test_count_hypergraph;
    Alcotest.test_case "counting: key blocks" `Quick test_key_blocks;
    Alcotest.test_case "counting: overflow is an error (library, CLI)" `Quick
      test_count_overflow;
    QCheck_alcotest.to_alcotest prop_count_matches_enumeration;
    Alcotest.test_case "prioritized: globally optimal" `Quick
      test_prioritized_globally_optimal;
    Alcotest.test_case "prioritized: empty priority" `Quick
      test_prioritized_empty_priority;
    Alcotest.test_case "prioritized: global ⊆ pareto" `Quick
      test_prioritized_containment;
    Alcotest.test_case "prioritized: greedy completion" `Quick
      test_greedy_completion;
    Alcotest.test_case "prioritized: certain answers" `Quick
      test_prioritized_answers;
    Alcotest.test_case "operational: samples are S-repairs" `Quick
      test_operational_sample_is_repair;
    Alcotest.test_case "operational: answer probabilities" `Quick
      test_operational_probabilities;
    Alcotest.test_case "operational: probable answers" `Quick
      test_operational_probable_answers;
    Alcotest.test_case "operational: rejects INDs" `Quick
      test_operational_rejects_ind;
    Alcotest.test_case "incremental: insert/delete" `Quick
      test_incremental_insert_delete;
    QCheck_alcotest.to_alcotest (test_incremental_matches_rebuild ());
    Alcotest.test_case "incremental: CQA" `Quick test_incremental_cqa;
    Alcotest.test_case "aggregate: Employee ranges" `Quick test_aggregate_employee;
    Alcotest.test_case "aggregate: NULL contributes 0 to SUM" `Quick
      test_aggregate_null_sum;
    QCheck_alcotest.to_alcotest prop_aggregate_closed_form;
  ]
