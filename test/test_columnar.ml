(* cqa-columnar equivalence suites: every compiled columnar kernel must be
   observationally identical to its row-at-a-time reference — the naive
   [Ra] operators for the [Plan] kernels, [Formula.interpret] for the
   compiled guarded formulas — including NULL/3VL edges, which the
   generators force on every path.  Conjunctive bodies are checked
   against the naive oracle in [Test_oracle]. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Fact = Relational.Fact
module Tid = Relational.Tid
module Columnar = Relational.Columnar
module Column = Relational.Column
module Plan = Relational.Plan
module Dict = Relational.Dict
open Logic

let check = Alcotest.check

(* Values in 0..3 force join collisions; 4 encodes NULL so three-valued
   semantics get exercised on every kernel. *)
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

(* --- Plan kernels = Ra operators ------------------------------------ *)

(* How a table's cells are written.  NULL-bearing Ints ([value_of]) are
   re-encoded by every join, so their joins build an index for that one
   call; NULL-free Ints and string codes are joined on the column's own
   cells, so the index is kept on the build column and reused.  A mixed
   Int/Str column is coded: against an Ints column it makes whichever
   side is not coded take the re-encoding path, and its even cells still
   join Ints. *)
type repr = Nullable_ints | Ints | Strs | Mixed

let cell_of repr n =
  match repr with
  | Nullable_ints -> value_of n
  | Ints -> Value.int n
  | Strs -> if n >= 4 then Value.Null else Value.str (string_of_int n)
  | Mixed -> if n mod 2 = 0 then Value.int n else Value.str (string_of_int n)

let repr_name = function
  | Nullable_ints -> "nullable-ints"
  | Ints -> "ints"
  | Strs -> "strs"
  | Mixed -> "mixed"

let ra_rel ?(repr = Nullable_ints) cols rows =
  {
    Ra.cols = Array.of_list cols;
    rows = List.map (fun (a, b) -> [| cell_of repr a; cell_of repr b |]) rows;
  }

let same_rel r1 r2 = r1.Ra.cols = r2.Ra.cols && r1.Ra.rows = r2.Ra.rows

let index_builds () =
  Obs.Registry.counter_value (Obs.Registry.current ()) "join.index_builds"

(* Representations of R, of S, and of a second copy of R joined
   against S's columns after the first two runs. *)
let arb_kernel =
  let reprs = QCheck.Gen.oneofl [ Nullable_ints; Ints; Strs; Mixed ] in
  QCheck.make
    QCheck.Gen.(pair (triple reprs reprs reprs) (QCheck.gen arb_db))
    ~print:(fun ((ra, rb, ralt), db) ->
      Printf.sprintf "%s / %s, then %s: %s" (repr_name ra) (repr_name rb)
        (repr_name ralt) (Option.get arb_db.QCheck.print db))

let prop_plan_ops_eq =
  QCheck.Test.make ~count:300 ~name:"Plan kernels = Ra operators" arb_kernel
    (fun ((repr_a, repr_b, repr_alt), (rs, ss)) ->
      let inst = Instance.create schema in
      let a = ra_rel ~repr:repr_a [ "a"; "b" ] rs
      and b = ra_rel ~repr:repr_b [ "b"; "c" ] ss
      and a2 = ra_rel ~repr:repr_a [ "a"; "b" ] ss
      and a_alt = ra_rel ~repr:repr_alt [ "a"; "b" ] rs in
      let table r = Plan.Table (Ra.to_columnar r) in
      let ta = table a and ta2 = table a2 in
      let run p = Ra.of_columnar (Plan.run inst p) in
      (* Each join runs twice on the same fresh tables: the first run
         meets the build column without an index, the second reuses the
         one the first kept (or, over re-encoded codes, builds its own
         again).  A third run joins the same build table against R
         written another way: an index kept over S's own cells must not
         serve the re-encoded codes that pairing may ask for. *)
      let twice mk oracle =
        let tb = table b in
        let p = mk (table a) tb in
        let b0 = index_builds () in
        let first = run p in
        let b1 = index_builds () in
        let second = run p in
        let b2 = index_builds () in
        same_rel first (oracle a b)
        && same_rel second (oracle a b)
        && b2 - b1 <= b1 - b0
        && same_rel (run (mk (table a_alt) tb)) (oracle a_alt b)
      in
      let eq1 = { Plan.op = Plan.Eq; left = Col "a"; right = Const (Value.int 1) } in
      let lt = { Plan.op = Plan.Lt; left = Col "a"; right = Col "b" } in
      let neq_ac = { Plan.op = Plan.Neq; left = Col "a"; right = Col "c" } in
      let antijoin a b =
        let joined = Ra.semijoin a b in
        { a with Ra.rows = List.filter (fun r -> not (List.mem r joined.Ra.rows)) a.Ra.rows }
      in
      same_rel (run (Plan.Filter (All [ eq1 ], ta))) (Ra.select_eq "a" (Value.int 1) a)
      && same_rel
           (run (Plan.Filter (All [ lt ], ta)))
           (Ra.select (fun _ row -> Plan.eval_op Plan.Lt row.(0) row.(1)) a)
      && twice (fun ta tb -> Plan.Join (ta, tb)) Ra.natural_join
      && twice (fun ta tb -> Plan.Semijoin (ta, tb)) Ra.semijoin
      && twice (fun ta tb -> Plan.Antijoin (ta, tb)) antijoin
      && twice
           (fun ta tb -> Plan.Filter (All [ neq_ac ], Plan.Join (ta, tb)))
           (fun a b ->
             Ra.select
               (fun _ row -> Plan.eval_op Plan.Neq row.(0) row.(2))
               (Ra.natural_join a b))
      && same_rel (run (Plan.Union (ta, ta2))) (Ra.union a a2)
      && same_rel (run (Plan.Diff (ta, ta2))) (Ra.difference a a2)
      && same_rel (run (Plan.Distinct ta)) (Ra.distinct a)
      && same_rel (run (Plan.Project ([ "b" ], ta))) (Ra.project [ "b" ] a))

(* --- Formula.answers: compiled guarded plans = interpreter ----------- *)

let keys = [ ("R", [ 0 ]); ("S", [ 0 ]) ]

let rewritable_queries =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  [
    (* Q2-style projection: the guard quantifies the non-key position. *)
    Cq.make ~name:"proj" [ x ] [ Atom.make "R" [ x; y ] ];
    (* C-forest join: child guard nests under the parent's mate. *)
    Cq.make ~name:"chain" [ x; z ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ];
    (* Constant in a non-key position becomes a comparison condition. *)
    Cq.make ~name:"constnk" [ x ] [ Atom.make "R" [ x; Term.const (Value.int 2) ] ];
    (* Full-tuple query: no mates to refute, plain conjunction plan. *)
    Cq.make ~name:"full" [ x; y ] [ Atom.make "R" [ x; y ] ];
  ]

let interpret_rewriting q ~keys db =
  Option.map
    (Formula.interpret db ~free:(Cq.head_vars q))
    (Rewriting.Key_rewrite.rewrite q ~keys)

let prop_rewrite_columnar_eq =
  QCheck.Test.make ~count:300
    ~name:"columnar consistent_answers (FO rewriting) = row" arb_db
    (fun db_spec ->
      let db = instance_of db_spec in
      List.for_all
        (fun q ->
          interpret_rewriting q ~keys db
          = Rewriting.Key_rewrite.consistent_answers q ~keys db)
        rewritable_queries)

(* The decorrelation repro below, as a formula over R and S: w is bound
   by the top-level atoms and re-checked two guards down, so the child
   under R's mate refers to w although its own atom S(u, e) does not
   generate it. *)
let guarded_formulas =
  let v = Term.var in
  let atom r a b = Formula.Atom (Atom.make r [ v a; v b ]) in
  let guard r k u body =
    Formula.Forall ([ u ], Formula.Implies (atom r k u, body))
  in
  let f =
    Formula.exists [ "y"; "z" ]
      (Formula.conj
         [
           atom "R" "x" "y";
           atom "S" "y" "z";
           atom "R" "z" "w";
           guard "R" "x" "u"
             (Formula.exists [ "e" ]
                (Formula.And
                   ( atom "S" "u" "e",
                     guard "S" "u" "u2"
                       (Formula.Exists
                          ( [],
                            Formula.And
                             ( atom "R" "u2" "w",
                               guard "R" "u2" "t"
                                 (Formula.Cmp (Cmp.eq (v "t") (v "w"))) ) )) )));
         ])
  in
  [ (f, [ "x"; "w" ]) ]

let prop_formula_columnar_eq =
  QCheck.Test.make ~count:300 ~name:"columnar Formula.answers = row" arb_db
    (fun db_spec ->
      let db = instance_of db_spec in
      List.for_all
        (fun (f, free) ->
          Formula.interpret db ~free f = Formula.answers db ~free f)
        (List.map (fun q -> (Formula.of_cq q, Cq.head_vars q)) Test_oracle.fixed_queries
        @ guarded_formulas))

(* --- Cq.answers: compiled body = row-at-a-time nested loop ------------ *)

(* [Cq.answers] and [Cq.holds] run the compiled columnar body; the oracle
   walks the product of the atoms' [Ra] relations one row at a time.
   ([Formula.interpret] is no reference here: formula answers never bind
   a free variable to NULL, while a CQ's head may carry one.) *)
let prop_cq_columnar_eq =
  QCheck.Test.make ~count:300 ~name:"columnar Cq.answers = row Cq.answers"
    arb_db (fun db_spec ->
      let db = instance_of db_spec in
      List.for_all
        (fun q ->
          let row = Test_oracle.oracle_answers q db in
          Cq.answers q db = row && Cq.holds q db = (row <> []))
        Test_oracle.fixed_queries)

(* A head variable bound only at depth 3 of the rewriting: W occurs in
   U, which is checked inside S's guard inside T's guard.  Both T(1,_)
   claimants lead to U tuples with different W, so no W is certain. *)
let test_decorrelated_child () =
  let schema =
    Schema.of_list
      [ ("T", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("U", [ "c"; "d"; "e" ]) ]
  in
  let i = Value.int in
  let db =
    Instance.of_rows schema
      [
        ("T", [ [ i 1; i 10 ]; [ i 1; i 11 ] ]);
        ("S", [ [ i 10; i 20 ]; [ i 11; i 21 ] ]);
        ("U", [ [ i 20; i 100; i 0 ]; [ i 21; i 101; i 0 ] ]);
      ]
  in
  let ics =
    [
      Constraints.Ic.key ~rel:"T" [ 0 ];
      Constraints.Ic.key ~rel:"S" [ 0 ];
      Constraints.Ic.key ~rel:"U" [ 0 ];
    ]
  in
  let v = Term.var in
  let q =
    Cq.make ~name:"q" [ v "X"; v "W" ]
      [
        Atom.make "T" [ v "X"; v "Y" ];
        Atom.make "S" [ v "Y"; v "Z" ];
        Atom.make "U" [ v "Z"; v "W"; v "V" ];
      ]
  in
  let engine = Cqa.Engine.create ~schema ~ics db in
  check Alcotest.string "routed to the rewriting" "key_rewriting"
    (Cqa.Engine.route_label (Cqa.Engine.plan engine q).Cqa.Engine.route);
  check Alcotest.int "columnar: no certain answer" 0
    (List.length (Cqa.Engine.consistent_answers engine q));
  check Alcotest.int "row: no certain answer" 0
    (List.length
       (Option.get
          (interpret_rewriting q ~keys:[ ("T", [ 0 ]); ("S", [ 0 ]); ("U", [ 0 ]) ] db)));
  check Alcotest.int "enumeration agrees" 0
    (List.length
       (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration engine q))

(* --- Violation search: compiled = naive nested loop ------------------- *)

let vschema = Schema.of_list [ ("T", [ "k"; "v"; "w" ]) ]

let arb_vdb =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 10)
        (triple (int_range 0 3) (int_range 0 4) (int_range 0 2)))
    ~print:(fun rows ->
      String.concat ";"
        (List.map (fun (k, v, w) -> Printf.sprintf "%d,%d,%d" k v w) rows))

let vinstance_of rows =
  Instance.of_rows vschema
    [
      ( "T",
        List.map (fun (k, v, w) -> [ value_of k; value_of v; Value.int w ]) rows
      );
    ]

let vics =
  [ Constraints.Ic.key ~rel:"T" [ 0 ]; Constraints.Ic.fd ~rel:"T" ~lhs:[ 1 ] ~rhs:[ 2 ] ]

(* Whole witnesses — tid sets, bindings, matched atoms and their order —
   of [Violation.all] against the oracle's nested loop, denial by denial. *)
let prop_violation_columnar_eq =
  QCheck.Test.make ~count:300 ~name:"columnar violations = row violations"
    arb_vdb (fun rows ->
      let db = vinstance_of rows in
      let expected =
        List.concat_map
          (fun ic ->
            List.concat_map
              (fun (d : Constraints.Ic.denial) ->
                List.map (fun w -> (d.name, w)) (Test_oracle.expected_witnesses db d))
              (Option.get (Constraints.Ic.to_denials vschema ic)))
          vics
      in
      List.map
        (fun (w : Constraints.Violation.witness) ->
          (w.ic_name, Test_oracle.witness_repr w))
        (Constraints.Violation.all db vschema vics)
      = expected)

(* --- counters prove which engine ran --------------------------------- *)

let counter_value = Obs.Registry.counter_value

let test_engine_counters () =
  let db = instance_of ([ (1, 2); (3, 4) ], [ (2, 5) ]) in
  let q = List.hd Test_oracle.fixed_queries in
  let deltas run =
    let reg = Obs.Registry.create () in
    let prev = Obs.Registry.current () in
    Obs.Registry.set_current reg;
    Fun.protect ~finally:(fun () -> Obs.Registry.set_current prev) @@ fun () ->
    ignore (run ());
    ( counter_value reg "scan.columnar",
      counter_value reg "join.fused",
      counter_value reg "scan.row" )
  in
  let sc, jf, sr = deltas (fun () -> Cq.answers q db) in
  check Alcotest.bool "columnar: scan.columnar > 0" true (sc > 0);
  check Alcotest.bool "columnar: join.fused > 0" true (jf > 0);
  check Alcotest.int "columnar: scan.row = 0" 0 sr;
  let sc', _, sr' =
    deltas (fun () -> Formula.interpret db ~free:(Cq.head_vars q) (Formula.of_cq q))
  in
  check Alcotest.int "row: scan.columnar = 0" 0 sc';
  check Alcotest.bool "row: scan.row > 0" true (sr' > 0);
  check Alcotest.bool "dictionary populated" true (Dict.size () > 0)

(* Under an existential prefix a free variable ranges over the active
   domain, which holds no NULL: the self-equality the plan adds for it
   drops a NULL head, and passes its input through only on a NULL-free
   column. *)
let test_null_head_dropped () =
  let x = Term.var "x" and y = Term.var "y" in
  let f = Formula.Exists ([ "y" ], Formula.Atom (Atom.make "R" [ x; y ])) in
  List.iter
    (fun (name, rs, expected) ->
      let db = instance_of (rs, []) in
      let scans = Obs.Registry.counter_value (Obs.Registry.current ()) "scan.row" in
      let rows = Formula.answers db ~free:[ "x" ] f in
      check Alcotest.int (name ^ ": compiled")
        scans (Obs.Registry.counter_value (Obs.Registry.current ()) "scan.row");
      check
        Alcotest.(list (list string))
        (name ^ ": answers") expected
        (List.map (List.map Value.to_string) rows);
      check
        Alcotest.(list (list string))
        (name ^ ": interpreter") expected
        (List.map (List.map Value.to_string) (Formula.interpret db ~free:[ "x" ] f)))
    [
      ("NULL head", [ (1, 2); (4, 3); (4, 4) ], [ [ "1" ] ]);
      ("no NULL", [ (1, 2); (3, 3); (1, 4) ], [ [ "1" ]; [ "3" ] ]);
    ]

(* A warm key-rewriting read shaped like the serving benchmark's [fo]
   class (q(X) :- T(X, Y), S(Y, Z) under keys T[k], S[v], with
   conflicts on both sides) builds no join index: the base views'
   indexes are kept, and the guard's refuted rows are subtracted by row
   identity.  Warm reads run the same fused kernels over the same probe
   rows. *)
let test_warm_key_rewrite_no_index () =
  let schema = Schema.of_list [ ("T", [ "k"; "v" ]); ("S", [ "v"; "w" ]) ] in
  let ints = List.map (List.map Value.int) in
  let t_rows =
    List.concat
      (List.init 600 (fun i ->
           if i mod 20 = 0 || i mod 5 = 1 then [ [ i; i ]; [ i; 1000 + i ] ]
           else [ [ i; i ] ]))
  and s_rows =
    List.concat
      (List.init 60 (fun j ->
           let v = 10 * j in
           if j mod 7 = 0 then [ [ v; 1 ]; [ v; 2 ] ] else [ [ v; 1 ] ]))
  in
  let db = Instance.of_rows schema [ ("T", ints t_rows); ("S", ints s_rows) ] in
  let keys = [ Constraints.Ic.key ~rel:"T" [ 0 ]; Constraints.Ic.key ~rel:"S" [ 0 ] ] in
  let q =
    Cq.make ~name:"q" [ Term.var "X" ]
      [ Atom.make "T" [ Term.var "X"; Term.var "Y" ]; Atom.make "S" [ Term.var "Y"; Term.var "Z" ] ]
  in
  let eng = Cqa.Engine.create ~schema ~ics:keys db in
  let counter name = Obs.Registry.counter_value (Obs.Registry.current ()) name in
  let read () =
    let b0 = index_builds () and f0 = counter "join.fused"
    and p0 = counter "join.probe_rows" in
    let rows = Cqa.Engine.consistent_answers eng q in
    ( rows,
      index_builds () - b0,
      counter "join.fused" - f0,
      counter "join.probe_rows" - p0 )
  in
  check Alcotest.string "the key rewriting runs" "key_rewriting"
    (Cqa.Engine.route_label (Cqa.Engine.plan eng q).Cqa.Engine.route);
  (* The third read builds T's kept index on [v], earned by the rows
     the first two probed from it. *)
  let rows1, _, _, _ = read () in
  ignore (read ());
  ignore (read ());
  let _, _, fused1, probes1 = read () in
  let rows, builds, fused, probes = read () in
  (* The keys 10j with an S-key and no second claimant: j odd. *)
  let expected =
    List.filter_map
      (fun j -> if j mod 2 = 1 then Some [ Value.int (10 * j) ] else None)
      (List.init 60 Fun.id)
  in
  check Alcotest.bool "certain answers" true (rows1 = expected && rows = expected);
  check Alcotest.int "warm read: join indexes built" 0 builds;
  check Alcotest.bool "warm read: guards subtracted" true (fused > 0);
  check Alcotest.(pair int int) "warm reads: same kernels and probe rows"
    (fused1, probes1) (fused, probes)

(* --- dictionary and columnar-view integrity under updates ------------ *)

type op = Ins of int * int * int | Del of int | Upd of int * int * int

let arb_ops =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 0 6)
           (triple (int_range 0 3) (int_range 0 4) (int_range 0 2)))
        (list_size (int_range 0 12)
           (oneof
              [
                map
                  (fun (k, v, w) -> Ins (k, v, w))
                  (triple (int_range 0 3) (int_range 0 4) (int_range 0 2));
                map (fun i -> Del i) (int_range 0 20);
                map
                  (fun (i, p, v) -> Upd (i, p, v))
                  (triple (int_range 0 20) (int_range 0 2) (int_range 0 4));
              ])))
    ~print:(fun (rows, ops) ->
      let pp_op = function
        | Ins (k, v, w) -> Printf.sprintf "I(%d,%d,%d)" k v w
        | Del i -> Printf.sprintf "D%d" i
        | Upd (i, p, v) -> Printf.sprintf "U(%d,%d,%d)" i p v
      in
      Printf.sprintf "rows=%s ops=%s"
        (String.concat ";"
           (List.map (fun (k, v, w) -> Printf.sprintf "%d,%d,%d" k v w) rows))
        (String.concat ";" (List.map pp_op ops)))

let apply db = function
  | Ins (k, v, w) ->
      Instance.add db (Fact.make "T" [ value_of k; value_of v; Value.int w ])
  | Del i -> (
      match Tid.Set.elements (Instance.tids db) with
      | [] -> db
      | ts -> Instance.delete db (List.nth ts (i mod List.length ts)))
  | Upd (i, p, v) -> (
      match Tid.Set.elements (Instance.tids db) with
      | [] -> db
      | ts ->
          Instance.update_cell db
            (Tid.Cell.make (List.nth ts (i mod List.length ts)) (p + 1))
            (value_of v))

(* The memoized columnar view must decode back to exactly the row store
   after every persistent update (the per-relation cache invalidation in
   [Instance.cache_with] is what's under test), and dictionary codes must
   round-trip. *)
let prop_columnar_view_integrity =
  QCheck.Test.make ~count:300
    ~name:"columnar views stay exact across insert/delete/update_cell"
    arb_ops (fun (rows, ops) ->
      let db0 =
        Instance.of_rows vschema
          [
            ( "T",
              List.map
                (fun (k, v, w) -> [ value_of k; value_of v; Value.int w ])
                rows );
          ]
      in
      (* Build the view *before* the updates so what's under test is the
         invalidation, not a fresh build. *)
      ignore (Instance.columnar db0 ~rel:"T");
      let view_ok db =
        let view = Instance.columnar db ~rel:"T" in
        let expected =
          List.map
            (fun (tid, row) ->
              Array.append [| Value.int (Tid.to_int tid) |] row)
            (Instance.tuples db ~rel:"T")
        in
        Columnar.cols view = [| Instance.tid_column; "k"; "v"; "w" |]
        && Columnar.rows view = expected
      in
      let dict_ok db =
        List.for_all
          (fun (_, row) ->
            Array.for_all
              (fun v ->
                let c = Dict.intern v in
                c = Dict.intern v && Value.equal (Dict.value c) v)
              row)
          (Instance.tuples db ~rel:"T")
      in
      let db = List.fold_left (fun db op -> apply db op) db0 ops in
      List.for_all view_ok [ db0; db ] && dict_ok db)

(* --- the one-pass typed view and the fact count ----------------------- *)

(* Histories over two relations with mixed cell types: Int, Real, Str,
   Bool and NULL, Ints most often so that columns are sometimes all-Int
   and an update can turn one mixed (or back).  [Hview] builds the views
   mid-history, so later steps test what the caches carry over. *)
type hop =
  | Hadd of string * int list
  | Hdel of int
  | Hset of int * int * int
  | Hrestrict of int
  | Hview

let hschema = Schema.of_list [ ("U", [ "a"; "b"; "c" ]); ("V", [ "a" ]) ]

let cell = function
  | 5 -> Value.Real 1.
  | 6 -> Value.Str "1"
  | 7 -> Value.Bool true
  | 8 -> Value.Null
  | n -> Value.int (n mod 3)

let gen_cell = QCheck.Gen.(frequency [ (6, int_range 0 4); (1, int_range 5 8) ])

let arb_history =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 25)
        (frequency
           [
             ( 4,
               map2
                 (fun u cs -> if u then Hadd ("U", cs) else Hadd ("V", [ List.hd cs ]))
                 bool (list_repeat 3 gen_cell) );
             (1, map (fun i -> Hdel i) (int_range 0 30));
             (2, map3 (fun i p v -> Hset (i, p, v)) (int_range 0 30) (int_range 0 2) gen_cell);
             (1, map (fun m -> Hrestrict m) (int_range 1 4));
             (1, return Hview);
           ]))
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Hadd (r, cs) ->
                 Printf.sprintf "+%s(%s)" r
                   (String.concat "," (List.map (fun c -> Value.to_string (cell c)) cs))
             | Hdel i -> Printf.sprintf "-%d" i
             | Hset (i, p, v) -> Printf.sprintf "%d[%d]:=%s" i (p + 1) (Value.to_string (cell v))
             | Hrestrict m -> Printf.sprintf "keep%%%d" m
             | Hview -> "view")
           ops))

let nth_tid db i =
  match Tid.Set.elements (Instance.tids db) with
  | [] -> None
  | ts -> Some (List.nth ts (i mod List.length ts))

let happly db = function
  | Hadd (rel, cs) -> Instance.add db (Fact.make rel (List.map cell cs))
  | Hdel i -> Option.fold ~none:db ~some:(Instance.delete db) (nth_tid db i)
  | Hset (i, p, v) -> (
      match nth_tid db i with
      | None -> db
      | Some tid ->
          let pos = 1 + (p mod Fact.arity (Instance.fact_of db tid)) in
          Instance.update_cell db (Tid.Cell.make tid pos) (cell v))
  | Hrestrict m ->
      Instance.restrict db
        (Tid.Set.filter (fun t -> Tid.to_int t mod m <> 0) (Instance.tids db))
  | Hview ->
      ignore (Instance.columnar db ~rel:"U");
      ignore (Instance.columnar db ~rel:"V");
      db

(* The reference view: [Columnar.of_rows] (one [Column.of_values] per
   column) over [tuples], with the tid as a leading Int column.  Compared
   structurally, so the [Column.data] constructor, the cells under NULL
   slots and the bitmaps must all agree. *)
let view_matches db rel =
  let attrs = (Schema.relation hschema rel).Schema.attributes in
  let expected =
    Columnar.of_rows
      (Array.append [| Instance.tid_column |] attrs)
      (List.map
         (fun (tid, row) -> Array.append [| Value.int (Tid.to_int tid) |] row)
         (Instance.tuples db ~rel))
  in
  Instance.columnar db ~rel = expected

let prop_typed_view =
  QCheck.Test.make ~count:500
    ~name:"Instance.columnar = Columnar.of_rows over tuples after histories"
    arb_history (fun ops ->
      let db = List.fold_left happly (Instance.create hschema) ops in
      view_matches db "U" && view_matches db "V")

let prop_size =
  QCheck.Test.make ~count:500 ~name:"Instance.size = number of facts after histories"
    arb_history (fun ops ->
      List.for_all
        (fun db ->
          Instance.size db = List.length (Instance.fact_list db)
          && Instance.size db
             = Instance.cardinality db ~rel:"U" + Instance.cardinality db ~rel:"V")
        (List.fold_left
           (fun acc op -> happly (List.hd acc) op :: acc)
           [ Instance.create hschema ] ops))

(* An update that turns an all-Int column mixed rebuilds it through
   [Column.of_values] (coded), and the update back returns it to [Ints]. *)
let test_typed_view_fallback () =
  let db = Instance.of_rows hschema [ ("U", [ [ Value.int 1; Value.int 2; Value.Null ] ]) ] in
  let tid = List.hd (Tid.Set.elements (Instance.tids db)) in
  let data db p = (Columnar.columns (Instance.columnar db ~rel:"U")).(p).Relational.Column.data in
  let is_ints = function Relational.Column.Ints _ -> true | _ -> false in
  check Alcotest.bool "all-Int column is Ints" true (is_ints (data db 2));
  check Alcotest.bool "all-NULL column is Ints" true (is_ints (data db 3));
  let mixed = Instance.update_cell db (Tid.Cell.make tid 2) (Value.Str "x") in
  check Alcotest.bool "mixed after the update" false (is_ints (data mixed 2));
  check Alcotest.bool "mixed view = reference" true (view_matches mixed "U");
  let back = Instance.update_cell mixed (Tid.Cell.make tid 2) (Value.int 7) in
  check Alcotest.bool "Ints again" true (is_ints (data back 2));
  check Alcotest.bool "view = reference" true (view_matches back "U")

(* --- join indexes on views ------------------------------------------- *)

(* R ⋈ S on b over the relations' views: S's b column is the build side,
   NULL-free Ints, so its index is kept on the view's column. *)
let join_rs =
  let v x = Plan.Avar x in
  Plan.Join
    ( Plan.Scan { rel = "R"; args = [ v "a"; v "b" ]; tid = None },
      Plan.Scan { rel = "S"; args = [ v "b"; v "c" ]; tid = None } )

let sorted_rows tbl = List.sort compare (Columnar.rows tbl)

type jop = Jadd of bool * int * int | Jdel of int | Jset of int * int * int

let arb_join_history =
  QCheck.make
    QCheck.Gen.(
      pair
        (pair
           (list_size (int_range 0 8) (pair (int_range 0 5) (int_range 0 5)))
           (list_size (int_range 0 8) (pair (int_range 0 5) (int_range 0 5))))
        (list_size (int_range 1 15)
           (frequency
              [
                (3, map3 (fun r x y -> Jadd (r, x, y)) bool (int_range 0 5) (int_range 0 5));
                (1, map (fun i -> Jdel i) (int_range 0 20));
                ( 2,
                  map3 (fun i p x -> Jset (i, p, x)) (int_range 0 20) (int_range 1 2)
                    (int_range 0 5) );
              ])))
    ~print:(fun ((rs, ss), ops) ->
      let row (a, b) = Printf.sprintf "%d,%d" a b in
      Printf.sprintf "R=%s S=%s then %s"
        (String.concat ";" (List.map row rs))
        (String.concat ";" (List.map row ss))
        (String.concat " "
           (List.map
              (function
                | Jadd (r, x, y) -> Printf.sprintf "+%s(%d,%d)" (if r then "R" else "S") x y
                | Jdel i -> Printf.sprintf "-%d" i
                | Jset (i, p, x) -> Printf.sprintf "%d[%d]:=%d" i p x)
              ops)))

(* At every point of an insert/delete/update_cell history the join equals
   a fresh instance's, in the same row order on every run, and each
   view's join column builds its index at most once, keeping it: the
   right view S at its first use as the build side, the left view R only
   once earned — R is the larger side and already keeps an index, or
   the rows joins probed from it exceed its length.  Then the join
   probes S's rows into R's index.  A fresh R view is probed on its
   first two runs and earns on the third, so the fourth run of a point
   builds nothing. *)
let prop_join_views =
  QCheck.Test.make ~count:300
    ~name:"view joins = fresh instance's, each view's index built once"
    arb_join_history (fun ((rs, ss), ops) ->
      let ints = List.map (fun (x, y) -> [ Value.int x; Value.int y ]) in
      let db0 = Instance.of_rows schema [ ("R", ints rs); ("S", ints ss) ] in
      let write db = function
        | Jadd (r, x, y) ->
            Instance.add db
              (Fact.make (if r then "R" else "S") [ Value.int x; Value.int y ])
        | Jdel i -> Option.fold ~none:db ~some:(Instance.delete db) (nth_tid db i)
        | Jset (i, p, x) -> (
            match nth_tid db i with
            | None -> db
            | Some tid -> Instance.update_cell db (Tid.Cell.make tid p) (Value.int x))
      in
      let point db =
        (* The join column of each view: R(#tid, a, b), S(#tid, b, c). *)
        let r = (Columnar.columns (Instance.columnar db ~rel:"R")).(2)
        and s = (Columnar.columns (Instance.columnar db ~rel:"S")).(1) in
        let nr = Column.length r and ns = Column.length s in
        let fresh_db = Instance.of_facts schema (Instance.fact_list db) in
        let expected = sorted_rows (Plan.run fresh_db join_rs) in
        let run () =
          let earned =
            nr > ns && (r.Column.index <> None || r.Column.probed > nr)
          in
          let unbuilt c = if c.Column.index = None then 1 else 0 in
          let due = if earned then unbuilt r else unbuilt s in
          let b0 = index_builds () in
          let rows = Columnar.rows (Plan.run db join_rs) in
          (rows, index_builds () - b0, due)
        in
        let runs = List.init 4 (fun _ -> run ()) in
        let first, _, _ = List.hd runs and _, last_builds, _ = List.nth runs 3 in
        List.sort compare first = expected
        && List.for_all (fun (rows, built, due) -> rows = first && built = due) runs
        && last_builds = 0
      in
      let rec go db = function
        | [] -> true
        | op :: rest ->
            let db = write db op in
            point db && go db rest
      in
      point db0 && go db0 ops)

(* Two domains join against one view column whose index nobody has built
   yet; whichever build is published, both results equal the oracle. *)
let test_join_index_race () =
  let n = 400 in
  for round = 1 to 10 do
    let rs = List.init n (fun i -> (i, (i * 7 + round) mod (n / 2)))
    and ss = List.init n (fun i -> ((i * 3) mod (n / 2), i)) in
    let ints = List.map (fun (x, y) -> [ Value.int x; Value.int y ]) in
    let db = Instance.of_rows schema [ ("R", ints rs); ("S", ints ss) ] in
    ignore (Instance.columnar db ~rel:"R");
    ignore (Instance.columnar db ~rel:"S");
    let expected =
      Ra.natural_join (ra_rel ~repr:Ints [ "a"; "b" ] rs)
        (ra_rel ~repr:Ints [ "b"; "c" ] ss)
    in
    let ready = Atomic.make 0 in
    let worker () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Ra.of_columnar (Plan.run db join_rs)
    in
    let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
    let r1 = Domain.join d1 and r2 = Domain.join d2 in
    check Alcotest.bool
      (Printf.sprintf "round %d: both domains = oracle" round)
      true
      (same_rel r1 expected && same_rel r2 expected)
  done

(* A probe of the join index allocates nothing: 10k probe rows that
   match nothing allocate no more than 1k such rows, the index being
   warm in both cases.  Words are counted with the arrays the major heap
   takes directly (minor words alone miss any array over 256 words, such
   as a scratch array per probe row). *)
let test_probe_allocates_nothing () =
  let inst = Instance.create schema in
  let tb =
    Plan.Table
      (Ra.to_columnar
         (ra_rel ~repr:Ints [ "b"; "c" ] (List.init 1000 (fun i -> (i, i)))))
  in
  let probe rows =
    Plan.Table
      (Ra.to_columnar
         (ra_rel ~repr:Ints [ "a"; "b" ]
            (List.init rows (fun i -> (i, 1_000_000 + i)))))
  in
  let small = probe 1_000 and big = probe 10_000 in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let words plan =
    ignore (Plan.run inst plan);
    let before = allocated () in
    ignore (Plan.run inst plan);
    allocated () -. before
  in
  List.iter
    (fun (name, mk) ->
      let w_small = words (mk small) and w_big = words (mk big) in
      check Alcotest.bool
        (Printf.sprintf "%s: 10k probes %.0f words, 1k probes %.0f words" name
           w_big w_small)
        true
        (w_big -. w_small < 1000.))
    [
      ("join", fun ta -> Plan.Join (ta, tb));
      ("semijoin", fun ta -> Plan.Semijoin (ta, tb));
    ]

(* --- one join kernel: keyed joins against the oracle ----------------- *)

let probe_rows () =
  Obs.Registry.counter_value (Obs.Registry.current ()) "join.probe_rows"

(* Two tables sharing 1-3 key columns k0..; each key column is written
   its own way on each side, the payload [a] or [b] is a plain Int.  One
   side has up to 60 rows, the other up to 6. *)
type keyed = {
  nkeys : int;
  reprs_a : repr list;
  reprs_b : repr list;
  rows_a : int list list;
  rows_b : int list list;
}

let gen_keyed =
  QCheck.Gen.(
    int_range 1 3 >>= fun nkeys ->
    let reprs = list_repeat nkeys (oneofl [ Nullable_ints; Ints; Strs; Mixed ]) in
    let rows n = list_size (int_range 0 n) (list_repeat (nkeys + 1) (int_range 0 4)) in
    map3
      (fun (reprs_a, reprs_b) big (rows_big, rows_small) ->
        let rows_a, rows_b =
          if big then (rows_big, rows_small) else (rows_small, rows_big)
        in
        { nkeys; reprs_a; reprs_b; rows_a; rows_b })
      (pair reprs reprs) bool (pair (rows 60) (rows 6)))

let print_keyed c =
  let rows rs =
    String.concat ";"
      (List.map (fun r -> String.concat "," (List.map string_of_int r)) rs)
  in
  Printf.sprintf "%d keys, A %s: %s / B %s: %s" c.nkeys
    (String.concat "," (List.map repr_name c.reprs_a))
    (rows c.rows_a)
    (String.concat "," (List.map repr_name c.reprs_b))
    (rows c.rows_b)

(* Runs on which a single-key join probed from its smaller right side. *)
let swapped_runs = ref 0

let keyed_kernels_agree c =
  let inst = Instance.create schema in
  let keys = List.init c.nkeys (Printf.sprintf "k%d") in
  let rel payload reprs rows =
    {
      Ra.cols = Array.of_list (keys @ [ payload ]);
      rows =
        List.map
          (fun r ->
            Array.of_list
              (List.mapi
                 (fun p n -> cell_of (if p < c.nkeys then List.nth reprs p else Ints) n)
                 r))
          rows;
    }
  in
  let a = rel "a" c.reprs_a c.rows_a and b = rel "b" c.reprs_b c.rows_b in
  let na = List.length a.Ra.rows and nb = List.length b.Ra.rows in
  let ta = Plan.Table (Ra.to_columnar a) and tb = Plan.Table (Ra.to_columnar b) in
  (* Four runs over the same columns: the left's probe count earns it a
     kept index by the third when it is the larger side. *)
  let runs plan oracle =
    List.for_all
      (fun _ ->
        let p0 = probe_rows () in
        let got = Ra.of_columnar (Plan.run inst plan) in
        if c.nkeys = 1 && na > nb && probe_rows () - p0 = nb then incr swapped_runs;
        got.Ra.cols = oracle.Ra.cols && got.Ra.rows = oracle.Ra.rows)
      [ 1; 2; 3; 4 ]
  in
  let a_idx, b_idx, _ = Ra.join_plan a b in
  let antijoin =
    {
      a with
      Ra.rows =
        List.filter
          (fun ra -> not (List.exists (Ra.joins a_idx b_idx ra) b.Ra.rows))
          a.Ra.rows;
    }
  in
  runs (Plan.Join (ta, tb)) (Ra.natural_join a b)
  && runs (Plan.Semijoin (ta, tb)) (Ra.semijoin a b)
  && runs (Plan.Antijoin (ta, tb)) antijoin
  && runs
       (Plan.Diff (Plan.Project (keys, ta), Plan.Project (keys, tb)))
       (Ra.difference (Ra.project keys a) (Ra.project keys b))

let prop_keyed_kernels =
  QCheck.Test.make ~count:300
    ~name:"join/semijoin/antijoin/Diff on 1-3 keys = Ra, order included"
    (QCheck.make gen_keyed ~print:print_keyed)
    keyed_kernels_agree

(* The same check on a fixed seed, asserting that the swapped probe
   direction was drawn and agreed too. *)
let test_keyed_swap_drawn () =
  let rand = Random.State.make [| 26 |] in
  swapped_runs := 0;
  for _ = 1 to 200 do
    let c = QCheck.Gen.generate1 ~rand gen_keyed in
    check Alcotest.bool (print_keyed c) true (keyed_kernels_agree c)
  done;
  check Alcotest.bool
    (Printf.sprintf "%d swapped runs" !swapped_runs)
    true (!swapped_runs > 0)

(* A 10:1 single-key join over base views: the first two runs probe the
   large left side into the right's index (built on run 1), and count
   its rows; the third finds the left has earned a kept index, builds
   it, and probes only the small side into it.  The rows and their
   order do not change. *)
let test_probe_side_earned () =
  let ints = List.map (fun (x, y) -> [ Value.int x; Value.int y ]) in
  let db =
    Instance.of_rows schema
      [
        ("R", ints (List.init 1000 (fun i -> (i, i mod 150))));
        ("S", ints (List.init 100 (fun i -> (i, i))));
      ]
  in
  let run () =
    let p0 = probe_rows () and b0 = index_builds () in
    let rows = Columnar.rows (Plan.run db join_rs) in
    (rows, probe_rows () - p0, index_builds () - b0)
  in
  let r1, p1, b1 = run () in
  let r2, p2, b2 = run () in
  let r3, p3, b3 = run () in
  let r4, p4, b4 = run () in
  check Alcotest.(list int) "rows probed per run" [ 1000; 1000; 100; 100 ]
    [ p1; p2; p3; p4 ];
  check Alcotest.(list int) "index builds per run" [ 1; 0; 1; 0 ] [ b1; b2; b3; b4 ];
  check Alcotest.int "matches" 700 (List.length r1);
  check Alcotest.bool "same rows in the same order on every run" true
    (r2 = r1 && r3 = r1 && r4 = r1)

(* A request whose deadline has passed stops a join over 120k rows from
   inside its loops, and the same engine then answers correctly.  The
   clock advances one second per read and every tick reads it. *)
let test_join_deadline () =
  let n = 120_000 in
  let ints = List.map (fun (x, y) -> [ Value.int x; Value.int y ]) in
  (* Every tenth key of R has a second claimant with no S partner, so
     exactly the other keys are certain. *)
  let r_rows =
    List.init n (fun i -> (i, i)) @ List.init (n / 10) (fun i -> (10 * i, -1))
  in
  let db =
    Instance.of_rows schema
      [ ("R", ints r_rows); ("S", ints (List.init n (fun i -> (i, i)))) ]
  in
  let within budget f =
    let now = ref 0.0 in
    let clock () =
      now := !now +. 1.0;
      !now
    in
    let ctx = Obs.Progress.create ~deadline_s:budget ~clock ~label:"join" ~id:0 () in
    let stopped =
      match Obs.Progress.run ctx f with
      | _ -> false
      | exception Obs.Progress.Deadline_exceeded -> true
    in
    (stopped, Obs.Progress.work ctx)
  in
  let prev = Obs.Progress.check_interval () in
  Obs.Progress.set_check_interval 1;
  Fun.protect ~finally:(fun () -> Obs.Progress.set_check_interval prev)
  @@ fun () ->
  (* Three plan nodes tick once each; a budget of 8 ticks is spent in
     the scan, build and probe loops. *)
  let stopped, work = within 8.5 (fun () -> Plan.run db join_rs) in
  check Alcotest.bool "the join stops" true stopped;
  check Alcotest.bool (Printf.sprintf "inside its loops (%d ticks)" work) true (work > 3);
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  let q = Cq.make ~name:"q" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ] in
  let engine =
    Cqa.Engine.create ~schema
      ~ics:[ Constraints.Ic.key ~rel:"R" [ 0 ]; Constraints.Ic.key ~rel:"S" [ 0 ] ]
      db
  in
  let answer () = Cqa.Engine.consistent_answers ~method_:`Key_rewriting engine q in
  let stopped, _ = within 0.0 answer in
  check Alcotest.bool "a request past its deadline stops" true stopped;
  let got = List.sort compare (answer ()) in
  let expected =
    List.filter_map
      (fun i -> if i mod 10 = 0 then None else Some [ Value.int i ])
      (List.init n Fun.id)
  in
  check Alcotest.int "then answers the next query" (List.length expected)
    (List.length got);
  check Alcotest.bool "with the certain answers" true (got = expected)

(* --- descriptive unknown-column errors ------------------------------- *)

let test_ra_unknown_column () =
  let r = ra_rel [ "a"; "b" ] [ (1, 2) ] in
  let expect_msg op f =
    match f () with
    | exception Invalid_argument m ->
        let has s =
          let re = Str.regexp_string s in
          try
            ignore (Str.search_forward re m 0);
            true
          with Not_found -> false
        in
        check Alcotest.bool (op ^ " names the operation") true (has op);
        check Alcotest.bool (op ^ " names the missing column") true (has "\"z\"");
        check Alcotest.bool (op ^ " lists available columns") true (has "a, b")
    | _ -> Alcotest.fail (op ^ ": expected Invalid_argument")
  in
  expect_msg "Ra.col" (fun () -> Ra.col r "z");
  expect_msg "Ra.project" (fun () -> Ra.project [ "a"; "z" ] r);
  expect_msg "Ra.rename" (fun () -> Ra.rename [ ("z", "q") ] r)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_plan_ops_eq;
    QCheck_alcotest.to_alcotest prop_join_views;
    Alcotest.test_case "domains racing to build one join index" `Quick
      test_join_index_race;
    Alcotest.test_case "join index probes allocate nothing" `Quick
      test_probe_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_keyed_kernels;
    Alcotest.test_case "keyed kernels: the swapped probe side is drawn" `Quick
      test_keyed_swap_drawn;
    Alcotest.test_case "a join probes from the side that earned an index" `Quick
      test_probe_side_earned;
    Alcotest.test_case "a deadline stops a large join" `Quick test_join_deadline;
    QCheck_alcotest.to_alcotest prop_rewrite_columnar_eq;
    QCheck_alcotest.to_alcotest prop_cq_columnar_eq;
    QCheck_alcotest.to_alcotest prop_formula_columnar_eq;
    Alcotest.test_case "a child's free variable is decorrelated" `Quick
      test_decorrelated_child;
    Alcotest.test_case "counters prove the engine that ran" `Quick
      test_engine_counters;
    Alcotest.test_case "a NULL head under an existential prefix is dropped"
      `Quick test_null_head_dropped;
    Alcotest.test_case "a warm key-rewriting read builds no join index" `Quick
      test_warm_key_rewrite_no_index;
    QCheck_alcotest.to_alcotest prop_violation_columnar_eq;
    QCheck_alcotest.to_alcotest prop_columnar_view_integrity;
    QCheck_alcotest.to_alcotest prop_typed_view;
    QCheck_alcotest.to_alcotest prop_size;
    Alcotest.test_case "typed view falls back on a mixed column" `Quick
      test_typed_view_fallback;
    Alcotest.test_case "Ra unknown-column diagnostics" `Quick
      test_ra_unknown_column;
  ]
