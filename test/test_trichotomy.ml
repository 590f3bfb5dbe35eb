(* The attack-graph trichotomy end to end: attack edges with their
   strong/weak classification, elimination orders, saturation as an
   equivalence-preserving preprocessing step, and the elimination-order
   rewriting's agreement with repair enumeration on the columnar executor
   (unit + one qcheck differential over the acyclic tier). *)

module Attack_graph = Analysis.Attack_graph
module Classify = Analysis.Classify
module Lint = Analysis.Lint
module Finding = Analysis.Finding
module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Fact = Relational.Fact
module Ic = Constraints.Ic
open Logic

let check = Alcotest.check
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let rs_keys = [ ("R", [ 0 ]); ("S", [ 0 ]) ]

let edges (g : Attack_graph.t) =
  List.map
    (fun (a : Attack_graph.attack) -> (a.source, a.target, a.strong))
    g.attacks

let edge = Alcotest.(list (triple int int bool))

(* ---- Attack edges, strength, cycles ---------------------------------- *)

let test_attack_edges () =
  (* Boolean nonkey-nonkey join — the Fuxman–Miller hard example — is a
     2-cycle of strong attacks. *)
  let bhard =
    Cq.make ~name:"bhard" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let g = Attack_graph.analyze bhard ~keys:rs_keys in
  check edge "bhard attacks" [ (0, 1, true); (1, 0, true) ] (edges g);
  (match g.cycle with
  | Some (Attack_graph.Strong_pair _) -> ()
  | _ -> Alcotest.fail "expected a strong 2-cycle");
  check Alcotest.bool "cyclic graph has no order" true (g.order = None);
  (* Free x acts as a constant: S's closure absorbs the join variable, so
     only R attacks S and the graph is acyclic. *)
  let hard =
    Cq.make ~name:"hard" [ x ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let g = Attack_graph.analyze hard ~keys:rs_keys in
  check edge "hard attacks" [ (0, 1, true) ] (edges g);
  check Alcotest.(option (list int)) "hard order" (Some [ 0; 1 ]) g.order;
  (* The Boolean join cycle carries weak attacks both ways: each key is
     implied by the other under the full dependency set. *)
  let bcyc =
    Cq.make ~name:"bcyc" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; x ] ]
  in
  let g = Attack_graph.analyze bcyc ~keys:rs_keys in
  check edge "bcyc attacks" [ (0, 1, false); (1, 0, false) ] (edges g);
  match g.cycle with
  | Some (Attack_graph.Weak [ 0; 1 ]) -> ()
  | _ -> Alcotest.fail "expected a weak 2-cycle"

(* ---- The canonical acyclic example ---------------------------------- *)

(* pair(M) :- Advises(M, S), Assists(S, M), both keyed on their first
   column: the attack graph is acyclic (Advises attacks Assists, not
   vice versa) although the join into Assists' key is outside the
   Fuxman–Miller C-forest fragment; the elimination-order rewriting
   answers it on the columnar executor. *)
let mentor_schema =
  Schema.of_list
    [ ("Advises", [ "mentor"; "student" ]); ("Assists", [ "student"; "mentor" ]) ]

let mentor_ics = [ Ic.key ~rel:"Advises" [ 0 ]; Ic.key ~rel:"Assists" [ 0 ] ]
let m = Term.var "m"
let s = Term.var "s"

let pair_q =
  Cq.make ~name:"pair" [ m ]
    [ Atom.make "Advises" [ m; s ]; Atom.make "Assists" [ s; m ] ]

let mentor_db =
  Instance.of_rows mentor_schema
    [
      ( "Advises",
        [
          [ Value.str "ann"; Value.str "bob" ];
          [ Value.str "cara"; Value.str "dan" ];
          [ Value.str "cara"; Value.str "ed" ];
        ] );
      ( "Assists",
        [
          [ Value.str "bob"; Value.str "ann" ];
          [ Value.str "dan"; Value.str "cara" ];
        ] );
    ]

let test_acyclic_routing_and_answers () =
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics mentor_db in
  let plan = Cqa.Engine.plan eng pair_q in
  check Alcotest.string "plan routes to the rewriting" "key_rewriting"
    (Cqa.Engine.route_label plan.Cqa.Engine.route);
  check Alcotest.string "verdict" "FO_rewritable"
    (Classify.verdict_label
       plan.Cqa.Engine.classification.Classify.verdict);
  check Alcotest.string "witness" "attack-graph/acyclic"
    (Classify.witness_code plan.Cqa.Engine.classification.Classify.witness);
  (* ann's block is consistent and assisted back; cara's conflicting
     advisees are not both assisting, so only ann is certain. *)
  let rows m = Cqa.Engine.consistent_answers ~method_:m eng pair_q in
  let expect = [ [ Value.str "ann" ] ] in
  check Alcotest.bool "auto answers" true
    (Cqa.Engine.consistent_answers eng pair_q = expect);
  check Alcotest.bool "forced rewriting answers" true (rows `Key_rewriting = expect);
  check Alcotest.bool "enumeration agrees" true
    (rows `Repair_enumeration = expect)

let counter_delta f =
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  f ();
  let delta = Obs.Registry.counter_delta ~since:before reg in
  fun name -> Option.value ~default:0 (List.assoc_opt name delta)

let test_rewriting_counters_fire () =
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics mentor_db in
  let d = counter_delta (fun () -> ignore (Cqa.Engine.consistent_answers eng pair_q)) in
  check Alcotest.int "classified once" 1 (d "analysis.classified");
  check Alcotest.int "rewriting built once" 1 (d "rewrite.key_applicable");
  check Alcotest.bool "columnar scans" true (d "scan.columnar" > 0);
  check Alcotest.int "no row-interpreter fallback" 0 (d "scan.row");
  check Alcotest.int "no repairs enumerated" 0 (d "repairs.enumerations")

(* One auto QUERY through the server on the shipped example classifies
   the query exactly once: the plan carries the rewriting input to the
   executor. *)
let test_one_classification_per_query () =
  let h = Server.Handler.create () in
  let payload =
    Filename.concat (Filename.dirname Sys.executable_name) "../examples/mentors.cqa"
    |> Fun.flip In_channel.with_open_text In_channel.input_all
    |> String.split_on_char '\n'
  in
  (match Server.Handler.dispatch h ~payload (Server.Protocol.Load "m") with
  | { Server.Protocol.status = `Ok; _ } -> ()
  | { Server.Protocol.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head));
  let r = ref None in
  let d =
    counter_delta (fun () ->
        r := Some (Server.Handler.handle_line h "QUERY m pair"))
  in
  (match !r with
  | Some { Server.Protocol.status = `Ok; body; _ } ->
      check Alcotest.(list string) "certain answer" [ "ann" ] body
  | _ -> Alcotest.fail "QUERY failed");
  check Alcotest.int "analysis.classified moves by 1" 1 (d "analysis.classified")

(* Ten cache-missing auto QUERYs of one name (each after an UPDATE,
   which drops the session's cached answers but keeps its document's
   queries and constraints) classify the query once; a LOAD of a
   changed document plans it again, and its answer follows the new
   constraints. *)
let test_plan_memo_per_load () =
  let h = Server.Handler.create () in
  let text =
    Filename.concat (Filename.dirname Sys.executable_name) "../examples/mentors.cqa"
    |> Fun.flip In_channel.with_open_text In_channel.input_all
  in
  let load text =
    match
      Server.Handler.dispatch h ~payload:(String.split_on_char '\n' text)
        (Server.Protocol.Load "m")
    with
    | { Server.Protocol.status = `Ok; _ } -> ()
    | { Server.Protocol.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)
  in
  let query () =
    match Server.Handler.handle_line h "QUERY m pair" with
    | { Server.Protocol.status = `Ok; body; _ } -> body
    | { Server.Protocol.head; _ } -> Alcotest.fail ("QUERY failed: " ^ head)
  in
  load text;
  let misses () = Server.Metrics.misses (Server.Handler.metrics h) in
  let m0 = misses () in
  let d =
    counter_delta (fun () ->
        for i = 1 to 10 do
          let op = if i mod 2 = 1 then "add" else "del" in
          ignore
            (Server.Handler.handle_line h
               (Printf.sprintf "UPDATE m %s Assists(zoe, zed)" op));
          check Alcotest.(list string) "certain answer" [ "ann" ] (query ())
        done)
  in
  check Alcotest.int "ten cache misses" 10 (misses () - m0);
  check Alcotest.int "classified once" 1 (d "analysis.classified");
  (* Without the Advises key nothing conflicts: cara's pairing is
     certain too. *)
  let unkeyed =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "key Advises(mentor)")
    |> String.concat "\n"
  in
  let d =
    counter_delta (fun () ->
        load unkeyed;
        check Alcotest.(list string) "changed constraints, changed answer"
          [ "ann"; "cara" ] (query ());
        ignore (query ()))
  in
  check Alcotest.int "the changed document is planned again" 1
    (d "analysis.classified")

let test_null_instance_falls_back () =
  (* Repairs compare NULLs structurally while the rewriting joins under
     SQL three-valued logic, so the route declines instances with NULL
     in the relations the query reads and auto falls back to an exact
     route. *)
  let db =
    Instance.of_rows mentor_schema
      [
        ("Advises", [ [ Value.str "ann"; Value.Null ] ]);
        ("Assists", [ [ Value.str "bob"; Value.str "ann" ] ]);
      ]
  in
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics db in
  check Alcotest.(list (list string)) "auto stays sound on NULLs" []
    (List.map (List.map (Format.asprintf "%a" Value.pp))
       (Cqa.Engine.consistent_answers eng pair_q))

(* ---- Saturation ------------------------------------------------------- *)

(* The Koutris–Wijsen triangle: q() :- R(x,y), S(y,z), T(x,z), all keyed
   on their first column.  T's non-key z is internally determined
   (x -> y by R, y -> z by S), so saturation fires for (T, z). *)
let tri_schema =
  Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "a"; "c" ]) ]

let tri_ics =
  [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ]; Ic.key ~rel:"T" [ 0 ] ]

let tri_keys = [ ("R", [ 0 ]); ("S", [ 0 ]); ("T", [ 0 ]) ]

let triangle =
  Cq.make ~name:"tri" []
    [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ]; Atom.make "T" [ x; z ] ]

let test_saturation_fires_on_triangle () =
  match Attack_graph.saturate triangle ~keys:tri_keys with
  | None -> Alcotest.fail "saturation should fire on the triangle query"
  | Some sat ->
      check Alcotest.int "one internal dependency" 1
        (List.length sat.Attack_graph.derived);
      let fd = List.hd sat.Attack_graph.derived in
      check Alcotest.string "on atom T" "T" fd.Attack_graph.rel;
      check Alcotest.string "for variable z" "z" fd.Attack_graph.var;
      check Alcotest.int "one helper atom appended" 4
        (List.length sat.Attack_graph.squery.Cq.body);
      check Alcotest.int "one defining rule" 1
        (List.length sat.Attack_graph.rules);
      (* The helper carries a whole-tuple key. *)
      let helper =
        (List.nth sat.Attack_graph.squery.Cq.body 3 : Atom.t).rel
      in
      check Alcotest.(option (list int)) "whole-tuple key" (Some [ 0; 1 ])
        (List.assoc_opt helper sat.Attack_graph.skeys);
      check Alcotest.bool "description names the path" true
        (String.length (Attack_graph.describe_fd fd) > 0)

(* Materialize the helper predicates over the raw database and hand back
   the extended (schema, ics, instance) triple for enumeration. *)
let extend_with_helpers schema ics db (sat : Attack_graph.saturation) =
  let heads =
    List.sort_uniq String.compare
      (List.map (fun (r : Datalog.Rule.t) -> r.head.Atom.rel) sat.rules)
  in
  let derived = Datalog.Eval.run_instance (Datalog.Program.make sat.rules) db in
  let helper_facts =
    List.filter
      (fun (f : Fact.t) -> List.mem f.rel heads)
      (Fact.Set.elements derived)
  in
  let arity r =
    match List.assoc_opt r sat.skeys with
    | Some ps -> List.length ps
    | None -> invalid_arg "helper without a whole-tuple key"
  in
  let schema' =
    List.fold_left
      (fun sc r ->
        Schema.add_relation sc ~name:r
          ~attributes:(List.init (arity r) (Printf.sprintf "a%d")))
      schema heads
  in
  let ics' =
    ics @ List.map (fun r -> Ic.key ~rel:r (List.init (arity r) Fun.id)) heads
  in
  let db' =
    Instance.add_all (Instance.of_facts schema' (Instance.fact_list db)) helper_facts
  in
  (schema', ics', db')

let certain_enum schema ics db q =
  let eng = Cqa.Engine.create ~schema ~ics db in
  List.sort compare
    (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)

let saturation_equivalent db =
  match Attack_graph.saturate triangle ~keys:tri_keys with
  | None -> false
  | Some sat ->
      let schema', ics', db' = extend_with_helpers tri_schema tri_ics db sat in
      certain_enum tri_schema tri_ics db triangle
      = certain_enum schema' ics' db' sat.Attack_graph.squery

let test_saturation_preserves_certainty () =
  let db =
    Instance.of_rows tri_schema
      [
        ("R", [ [ Value.int 1; Value.int 2 ]; [ Value.int 1; Value.int 3 ] ]);
        ("S", [ [ Value.int 2; Value.int 5 ]; [ Value.int 3; Value.int 5 ] ]);
        ("T", [ [ Value.int 1; Value.int 5 ]; [ Value.int 1; Value.int 6 ] ]);
      ]
  in
  check Alcotest.bool "CERTAINTY(q) = CERTAINTY(saturate q)" true
    (saturation_equivalent db)

(* ---- Self-join lint --------------------------------------------------- *)

let test_self_join_lint () =
  let sj =
    Cq.make ~name:"sj" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "R" [ y; z ] ]
  in
  let fs = Lint.query_findings sj in
  check Alcotest.int "one finding" 1 (List.length fs);
  let f = List.hd fs in
  check Alcotest.string "code" "query/self-join" f.Finding.code;
  check Alcotest.string "severity is a warning, not an error" "warning"
    (Finding.severity_label f.Finding.severity);
  check Alcotest.string "subject is the query" "sj" f.Finding.subject;
  check Alcotest.bool "message explains the fallback" true
    (let msg = f.Finding.message in
     let has sub = Str.string_match (Str.regexp (".*" ^ sub ^ ".*")) msg 0 in
     has "trichotomy" && has "enumeration");
  let sjf =
    Cq.make ~name:"ok" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ]
  in
  check Alcotest.int "self-join-free query is clean" 0
    (List.length (Lint.query_findings sjf))

(* ---- qcheck: the rewriting is exact on the acyclic tier -------------- *)

let rst_schema =
  Schema.of_list
    [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "c"; "d" ]) ]

let rst_ics =
  [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ]; Ic.key ~rel:"T" [ 0 ] ]

(* Acyclic shapes covering every path of the rewriting: nested guards,
   seeded children, all-key levels, saturation helpers, constants,
   repeated variables, comparisons and Boolean heads. *)
let tier_queries =
  let v = Term.var and c n = Term.Const (Value.int n) in
  let r a b = Atom.make "R" [ a; b ]
  and s a b = Atom.make "S" [ a; b ]
  and t a b = Atom.make "T" [ a; b ] in
  let x = v "x" and y = v "y" and z = v "z" and w = v "w" in
  [
    (* back-to-back join closed through the free variable *)
    Cq.make ~name:"back" [ x ] [ r x y; s y x ];
    (* three-atom cycle closed through the free variable *)
    Cq.make ~name:"cycle3" [ x ] [ r x y; s y z; t z x ];
    (* constant in a non-key position *)
    Cq.make ~name:"constnk" [ x ] [ r x (c 1); s x y ];
    (* repeated variable inside one atom *)
    Cq.make ~name:"repeat" [ x ] [ r x x; s x y ];
    (* comparison between two roots *)
    Cq.make ~name:"cmp_roots" ~comps:[ Cmp.make Cmp.Lt y z ] [ x ] [ r x y; s x z ];
    (* nonkey-nonkey join with a free variable *)
    Cq.make ~name:"hard" [ x ] [ r x y; s z y ];
    (* the Koutris–Wijsen triangle with x free: saturation fires *)
    Cq.make ~name:"triangle" [ x ] [ r x y; s y z; t x z ];
    (* three-atom chain *)
    Cq.make ~name:"chain3" [ x ] [ r x y; s y z; t z w ];
    (* two-root forest *)
    Cq.make ~name:"forest" [ x; z ] [ r x y; s y w; t z (v "u") ];
    (* head variable bound only at depth three *)
    Cq.make ~name:"deep_head" [ x; w ] [ r x y; s y z; t z w ];
    (* constant key *)
    Cq.make ~name:"constkey" [ y ] [ r (c 1) y; s y z ];
    (* variable repeated across a key and a non-key position *)
    Cq.make ~name:"key_nonkey" [ x ] [ r x y; s y y ];
    (* comparison spanning two levels of a chain *)
    Cq.make ~name:"cmp_levels" ~comps:[ Cmp.make Cmp.Lt y z ] [ x ] [ r x y; s y z ];
    (* Boolean chain *)
    Cq.make ~name:"bool_chain" [] [ r x y; s y z ];
    (* Boolean query with a constant *)
    Cq.make ~name:"bool_const" [] [ r x (c 2); s x y ];
    (* full tuple *)
    Cq.make ~name:"full" [ x; y ] [ r x y ];
  ]

let test_tier_is_acyclic () =
  List.iter
    (fun q ->
      let c = Classify.classify rst_ics q in
      check Alcotest.string (q.Cq.name ^ " witness") "attack-graph/acyclic"
        (Classify.witness_code c.Classify.witness))
    tier_queries

let arb_rst =
  let rel =
    QCheck.Gen.(list_size (int_range 0 5) (pair (int_range 0 2) (int_range 0 2)))
  in
  QCheck.make
    QCheck.Gen.(triple rel rel rel)
    ~print:(fun (rs, ss, ts) ->
      let side l =
        String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l)
      in
      Printf.sprintf "R=%s S=%s T=%s" (side rs) (side ss) (side ts))

let prop_rewriting_is_exact_on_acyclic_tier =
  QCheck.Test.make ~count:200
    ~name:"acyclic tier: auto = enumeration, scan.row = 0" arb_rst
    (fun (rs, ss, ts) ->
      let rows l = List.map (fun (a, b) -> [ Value.int a; Value.int b ]) l in
      let db =
        Instance.of_rows rst_schema [ ("R", rows rs); ("S", rows ss); ("T", rows ts) ]
      in
      let eng = Cqa.Engine.create ~schema:rst_schema ~ics:rst_ics db in
      List.for_all
        (fun q ->
          let auto = ref [] in
          let d =
            counter_delta (fun () -> auto := Cqa.Engine.consistent_answers eng q)
          in
          let enum =
            Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q
          in
          d "scan.row" = 0 && List.sort compare !auto = List.sort compare enum)
        tier_queries)

let arb_tri =
  QCheck.make
    QCheck.Gen.(
      triple
        (list_size (int_range 0 4) (pair (int_range 0 2) (int_range 0 2)))
        (list_size (int_range 0 4) (pair (int_range 0 2) (int_range 0 2)))
        (list_size (int_range 0 4) (pair (int_range 0 2) (int_range 0 2))))
    ~print:(fun (rs, ss, ts) ->
      let side l =
        String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l)
      in
      Printf.sprintf "R=%s S=%s T=%s" (side rs) (side ss) (side ts))

let prop_saturation_preserves_certainty =
  QCheck.Test.make ~count:100
    ~name:"saturation fires => CERTAINTY(q) = CERTAINTY(saturate q)" arb_tri
    (fun (rs, ss, ts) ->
      let rows l = List.map (fun (a, b) -> [ Value.int a; Value.int b ]) l in
      let db =
        Instance.of_rows tri_schema
          [ ("R", rows rs); ("S", rows ss); ("T", rows ts) ]
      in
      saturation_equivalent db)

let suite =
  [
    Alcotest.test_case "attack edges, strength and cycles" `Quick
      test_attack_edges;
    Alcotest.test_case "acyclic tier routes to the rewriting" `Quick
      test_acyclic_routing_and_answers;
    Alcotest.test_case "rewriting counters fire" `Quick
      test_rewriting_counters_fire;
    Alcotest.test_case "one QUERY classifies once" `Quick
      test_one_classification_per_query;
    Alcotest.test_case "one classification per query name and LOAD" `Quick
      test_plan_memo_per_load;
    Alcotest.test_case "NULL instances fall back soundly" `Quick
      test_null_instance_falls_back;
    Alcotest.test_case "saturation fires on the triangle" `Quick
      test_saturation_fires_on_triangle;
    Alcotest.test_case "saturation preserves certainty" `Quick
      test_saturation_preserves_certainty;
    Alcotest.test_case "self-join lint" `Quick test_self_join_lint;
    Alcotest.test_case "differential shapes are acyclic" `Quick
      test_tier_is_acyclic;
    QCheck_alcotest.to_alcotest prop_rewriting_is_exact_on_acyclic_tier;
    QCheck_alcotest.to_alcotest prop_saturation_preserves_certainty;
  ]
