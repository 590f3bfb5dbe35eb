module Value = Relational.Value
module Tvl = Relational.Tvl
module Schema = Relational.Schema
module Instance = Relational.Instance
module Fact = Relational.Fact
module Tid = Relational.Tid

let check = Alcotest.check
let tvl = Alcotest.testable Tvl.pp Tvl.equal

let test_value_equality () =
  check Alcotest.bool "null structurally equal" true Value.(equal Null Null);
  check tvl "null sql-unknown" Tvl.Unknown Value.(sql_eq Null Null);
  check tvl "null vs int unknown" Tvl.Unknown Value.(sql_eq Null (int 1));
  check tvl "ints equal" Tvl.True Value.(sql_eq (int 3) (int 3));
  check tvl "strings differ" Tvl.False Value.(sql_eq (str "a") (str "b"));
  check tvl "cross-type compare unknown" Tvl.Unknown
    (Value.sql_cmp (fun c -> c < 0) (Value.int 1) (Value.str "a"))

let test_tvl_tables () =
  let open Tvl in
  check tvl "T and U" Unknown (True &&& Unknown);
  check tvl "F and U" False (False &&& Unknown);
  check tvl "T or U" True (True ||| Unknown);
  check tvl "F or U" Unknown (False ||| Unknown);
  check tvl "not U" Unknown (not_ Unknown);
  check Alcotest.bool "only true selects" false (to_bool Unknown)

let test_schema () =
  let s = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "x" ]) ] in
  check Alcotest.int "arity R" 2 (Schema.arity s "R");
  check Alcotest.int "attr index" 1 (Schema.attribute_index s ~rel:"R" ~attr:"b");
  check Alcotest.bool "mem" true (Schema.mem s "S");
  check Alcotest.bool "not mem" false (Schema.mem s "T");
  Alcotest.check_raises "duplicate relation"
    (Invalid_argument "Schema.add_relation: duplicate relation R") (fun () ->
      ignore (Schema.add_relation s ~name:"R" ~attributes:[ "z" ]))

let schema = Schema.of_list [ ("R", [ "a"; "b" ]) ]

let test_instance_set_semantics () =
  let db = Instance.create schema in
  let db, t1 = Instance.insert_row db ~rel:"R" [ Value.int 1; Value.int 2 ] in
  let db, t2 = Instance.insert_row db ~rel:"R" [ Value.int 1; Value.int 2 ] in
  check Alcotest.bool "same tid on duplicate insert" true (Tid.equal t1 t2);
  check Alcotest.int "size 1" 1 (Instance.size db);
  let db, t3 = Instance.insert_row db ~rel:"R" [ Value.int 3; Value.int 4 ] in
  check Alcotest.int "size 2" 2 (Instance.size db);
  let db = Instance.delete db t3 in
  check Alcotest.int "size back to 1" 1 (Instance.size db);
  check Alcotest.bool "tid gone" false (Instance.mem_tid db t3)

let test_instance_arity_check () =
  let db = Instance.create schema in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Instance: R expects arity 2, got 1") (fun () ->
      ignore (Instance.insert_row db ~rel:"R" [ Value.int 1 ]))

let test_update_cell () =
  let db = Instance.create schema in
  let db, t1 = Instance.insert_row db ~rel:"R" [ Value.int 1; Value.int 2 ] in
  let db = Instance.update_cell db (Tid.Cell.make t1 2) Value.Null in
  check Alcotest.bool "updated fact present" true
    (Instance.mem_fact db (Fact.make "R" [ Value.int 1; Value.Null ]));
  check Alcotest.bool "tid preserved" true (Instance.mem_tid db t1);
  (* Updating into an existing fact merges (set semantics). *)
  let db, _ = Instance.insert_row db ~rel:"R" [ Value.int 1; Value.int 9 ] in
  let db = Instance.update_cell db (Tid.Cell.make t1 2) (Value.int 9) in
  check Alcotest.int "merged" 1 (Instance.size db)

let test_symmetric_difference () =
  let mk rows = Instance.of_rows schema [ ("R", rows) ] in
  let a = mk [ [ Value.int 1; Value.int 1 ]; [ Value.int 2; Value.int 2 ] ] in
  let b = mk [ [ Value.int 2; Value.int 2 ]; [ Value.int 3; Value.int 3 ] ] in
  let d = Instance.symmetric_difference a b in
  check Alcotest.int "two facts differ" 2 (Fact.Set.cardinal d)

let test_active_domain () =
  let db =
    Instance.of_rows schema
      [ ("R", [ [ Value.int 1; Value.Null ]; [ Value.int 2; Value.str "x" ] ]) ]
  in
  check Alcotest.int "nulls excluded" 3 (List.length (Instance.active_domain db))

let test_restrict () =
  let db = Instance.create schema in
  let db, t1 = Instance.insert_row db ~rel:"R" [ Value.int 1; Value.int 1 ] in
  let db, _t2 = Instance.insert_row db ~rel:"R" [ Value.int 2; Value.int 2 ] in
  let sub = Instance.restrict db (Tid.Set.singleton t1) in
  check Alcotest.int "restricted to one" 1 (Instance.size sub);
  check Alcotest.bool "subset" true (Instance.subset sub db)

let test_ra_basics () =
  let db =
    Instance.of_rows schema
      [ ("R", [ [ Value.int 1; Value.int 2 ]; [ Value.int 3; Value.int 4 ] ]) ]
  in
  let r = Ra.of_instance db "R" in
  check Alcotest.int "cardinality" 2 (Ra.cardinality r);
  let sel = Ra.select_eq "a" (Value.int 1) r in
  check Alcotest.int "selection" 1 (Ra.cardinality sel);
  let proj = Ra.project [ "b" ] r in
  check Alcotest.int "projection arity" 1 (Array.length proj.Ra.cols);
  let renamed = Ra.rename [ ("a", "c") ] r in
  check Alcotest.int "renamed col" 0 (Ra.col renamed "c")

let test_ra_null_join () =
  let s2 = Schema.of_list [ ("P", [ "k"; "v" ]); ("Q", [ "k"; "w" ]) ] in
  let db =
    Instance.of_rows s2
      [
        ("P", [ [ Value.int 1; Value.str "a" ]; [ Value.Null; Value.str "b" ] ]);
        ("Q", [ [ Value.int 1; Value.str "c" ]; [ Value.Null; Value.str "d" ] ]);
      ]
  in
  let j = Ra.natural_join (Ra.of_instance db "P") (Ra.of_instance db "Q") in
  (* NULL keys never join: only the key-1 pair matches. *)
  check Alcotest.int "null never joins" 1 (Ra.cardinality j)

let test_ra_set_ops () =
  let db =
    Instance.of_rows schema
      [ ("R", [ [ Value.int 1; Value.int 2 ]; [ Value.int 3; Value.int 4 ] ]) ]
  in
  let r = Ra.of_instance db "R" in
  check Alcotest.int "union idempotent" 2 (Ra.cardinality (Ra.union r r));
  check Alcotest.int "difference empty" 0 (Ra.cardinality (Ra.difference r r))

(* Kleene-algebra laws for the three-valued logic. *)
let arb_tvl =
  QCheck.make
    (QCheck.Gen.oneofl [ Tvl.True; Tvl.False; Tvl.Unknown ])
    ~print:(fun t -> Format.asprintf "%a" Tvl.pp t)

let prop_tvl_de_morgan =
  QCheck.Test.make ~count:100 ~name:"Tvl: De Morgan"
    QCheck.(pair arb_tvl arb_tvl)
    (fun (a, b) ->
      let open Tvl in
      equal (not_ (a &&& b)) (not_ a ||| not_ b)
      && equal (not_ (a ||| b)) (not_ a &&& not_ b))

let prop_tvl_lattice =
  QCheck.Test.make ~count:100 ~name:"Tvl: commutative, associative, involutive"
    QCheck.(triple arb_tvl arb_tvl arb_tvl)
    (fun (a, b, c) ->
      let open Tvl in
      equal (a &&& b) (b &&& a)
      && equal (a ||| b) (b ||| a)
      && equal ((a &&& b) &&& c) (a &&& (b &&& c))
      && equal ((a ||| b) ||| c) (a ||| (b ||| c))
      && equal (not_ (not_ a)) a)

(* [Value.to_string] builds the text directly; it must stay the text
   [Value.pp] prints, including the float corner cases and strings that
   hold newlines or commas. *)
let arb_value =
  let open QCheck.Gen in
  QCheck.make ~print:(fun v -> Format.asprintf "%a" Value.pp v)
    (oneof
       [
         map Value.int int;
         map Value.str
           (oneof
              [
                string_printable;
                oneofl [ ""; "a,b"; "line\nbreak"; "\n"; ",,\n,"; String.make 200 'x' ];
              ]);
         map Value.bool bool;
         return Value.Null;
         map Value.real float;
         map Value.real
           (oneofl [ nan; infinity; neg_infinity; -0.; 0.; 1e300; -1e-300; 0.1; 5e-324 ]);
       ])

let prop_value_to_string =
  QCheck.Test.make ~count:1000 ~name:"Value.to_string = Format.asprintf Value.pp"
    arb_value (fun v -> Value.to_string v = Format.asprintf "%a" Value.pp v)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_tvl_de_morgan;
    QCheck_alcotest.to_alcotest prop_value_to_string;
    QCheck_alcotest.to_alcotest prop_tvl_lattice;
    Alcotest.test_case "value equality and sql_eq" `Quick test_value_equality;
    Alcotest.test_case "three-valued truth tables" `Quick test_tvl_tables;
    Alcotest.test_case "schema declarations" `Quick test_schema;
    Alcotest.test_case "instance set semantics" `Quick test_instance_set_semantics;
    Alcotest.test_case "instance arity check" `Quick test_instance_arity_check;
    Alcotest.test_case "update_cell" `Quick test_update_cell;
    Alcotest.test_case "symmetric difference" `Quick test_symmetric_difference;
    Alcotest.test_case "active domain excludes NULL" `Quick test_active_domain;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "relational algebra basics" `Quick test_ra_basics;
    Alcotest.test_case "NULL never joins (RA)" `Quick test_ra_null_join;
    Alcotest.test_case "RA set operations" `Quick test_ra_set_ops;
  ]
