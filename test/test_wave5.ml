(* Entity resolution, signal-based cleaning, ASP brute-force differential. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Fact = Relational.Fact
module Tid = Relational.Tid
module Matching = Entity.Matching
module Signals = Cleaning.Signals
open Logic

let check = Alcotest.check
let v = Value.str

(* --- matching dependencies --- *)

let people_schema = Schema.of_list [ ("P", [ "name"; "phone"; "address" ]) ]

let people =
  Instance.of_rows people_schema
    [
      ( "P",
        [
          [ v "John Doe"; v "555-1234"; v "12 Main St" ];
          [ v "john doe"; v "555-1234"; v "12 Main Street" ];
          [ v "Jane Roe"; v "555-9999"; v "1 Elm St" ];
        ] );
    ]

(* Same phone and near-equal name → same address. *)
let md =
  {
    Matching.rel = "P";
    premise =
      [ (1, Matching.equal_similarity); (0, Matching.edit_similarity ~max_distance:2) ];
    identify = [ 2 ];
  }

let test_edit_distance () =
  check Alcotest.int "kitten/sitting" 3 (Matching.edit_distance "kitten" "sitting");
  check Alcotest.int "identity" 0 (Matching.edit_distance "abc" "abc");
  check Alcotest.int "empty" 3 (Matching.edit_distance "" "abc")

let test_md_chase () =
  check Alcotest.bool "unstable before" false (Matching.is_stable people [ md ]);
  let stable = Matching.chase people [ md ] in
  check Alcotest.bool "stable after" true (Matching.is_stable stable [ md ]);
  (* The two John Doe addresses merged (Prefer_first keeps tid 1's). *)
  let addresses =
    Instance.rows stable ~rel:"P"
    |> List.filter_map (fun r ->
           if Value.equal r.(1) (v "555-1234") then Some r.(2) else None)
    |> List.sort_uniq Value.compare
  in
  check Alcotest.int "one shared address" 1 (List.length addresses)

let test_md_policies () =
  let longest = Matching.chase ~policy:Matching.Prefer_longest people [ md ] in
  check Alcotest.bool "longest address chosen" true
    (List.exists
       (fun r -> Value.equal r.(2) (v "12 Main Street"))
       (Instance.rows longest ~rel:"P"))

let test_clusters () =
  let cs = Matching.clusters people [ md ] in
  check Alcotest.int "one duplicate cluster" 1 (List.length cs);
  check Alcotest.int "of two tuples" 2 (Tid.Set.cardinal (List.hd cs))

let test_resolve_with_key () =
  (* After merging, enforce one tuple per phone. *)
  let key = Constraints.Ic.key ~rel:"P" [ 1 ] in
  let resolved = Matching.resolve_with_key people people_schema ~mds:[ md ] ~key in
  check Alcotest.bool "some resolution exists" true (resolved <> []);
  List.iter
    (fun inst ->
      check Alcotest.bool "key holds" true
        (Constraints.Violation.is_consistent inst people_schema [ key ]))
    resolved

let test_prefix_similarity () =
  check Alcotest.bool "prefix match" true
    (Matching.prefix_similarity 3 (v "Johnson") (v "JOHN"));
  check Alcotest.bool "prefix mismatch" false
    (Matching.prefix_similarity 3 (v "Johnson") (v "Jane"))

(* --- signal-based cleaning --- *)

let city_schema = Schema.of_list [ ("C", [ "zip"; "city"; "street" ]) ]

(* Two tuples agree that 10001 is NYC; one outlier says LA. *)
let city_db =
  Instance.of_rows city_schema
    [
      ( "C",
        [
          [ v "10001"; v "NYC"; v "a st" ];
          [ v "10001"; v "NYC"; v "b st" ];
          [ v "10001"; v "LA"; v "c st" ];
          [ v "90210"; v "LA"; v "d st" ];
        ] );
    ]

let zip_fd = Constraints.Ic.fd ~rel:"C" ~lhs:[ 0 ] ~rhs:[ 1 ]

let test_signals_suggest () =
  let suggestions = Signals.suggest city_db city_schema [ zip_fd ] in
  (* The 10001 block is 2 NYC vs 1 LA: block majority proposes NYC for the
     outlier cell. *)
  check Alcotest.bool "a suggestion exists" true (suggestions <> []);
  let s = List.hd suggestions in
  check Alcotest.bool "proposes NYC" true (Value.equal s.Signals.proposed (v "NYC"));
  check Alcotest.bool "targets the LA cell" true
    (Value.equal s.Signals.current (v "LA"))

let test_signals_apply () =
  let outcome = Signals.apply ~min_confidence:0.5 city_db city_schema [ zip_fd ] in
  check Alcotest.bool "consistent after" true outcome.Signals.consistent;
  check Alcotest.bool "something applied" true (outcome.Signals.applied <> [])

let test_signals_low_confidence_skipped () =
  (* An evenly split block gives no signal either way: each row's own value
     wins its local vote (self co-occurrence), so nothing is proposed and
     the violation is explicitly left unresolved for a human. *)
  let db =
    Instance.of_rows city_schema
      [ ("C", [ [ v "10001"; v "A"; v "x" ]; [ v "10001"; v "B"; v "y" ] ]) ]
  in
  let outcome = Signals.apply ~min_confidence:0.9 db city_schema [ zip_fd ] in
  check Alcotest.bool "nothing applied" true (outcome.Signals.applied = []);
  check Alcotest.bool "still inconsistent" false outcome.Signals.consistent

let test_signals_reject_denials () =
  Alcotest.check_raises "denial rejected"
    (Invalid_argument "Signals: unsupported constraint kappa") (fun () ->
      ignore
        (Signals.suggest Workload.Paper.Denial.instance Workload.Paper.Denial.schema
           [ Workload.Paper.Denial.kappa ]))

(* --- ASP brute-force differential --- *)

(* Random propositional programs over atoms p0..p3; stable models computed
   from the definition (all subsets; reduct; minimal-model check by brute
   force) must equal the engine's. *)

let atoms = [ "p0"; "p1"; "p2"; "p3" ]
let atom name = Atom.make name []
let fact name = Fact.make name []

type brule = { head : string list; pos : string list; neg : string list }

let gen_rule =
  QCheck.Gen.(
    let subset = map (List.filteri (fun i _ -> i < 2)) (shuffle_l atoms) in
    map3
      (fun h p n ->
        { head = List.filteri (fun i _ -> i < max 1 (List.length h)) h;
          pos = p; neg = n })
      (map (List.filteri (fun i _ -> i < 2)) (shuffle_l atoms))
      subset subset)

let arb_program =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 4) gen_rule)
    ~print:(fun rules ->
      String.concat "; "
        (List.map
           (fun r ->
             Printf.sprintf "%s :- %s, not %s"
               (String.concat "|" r.head)
               (String.concat "," r.pos)
               (String.concat "," r.neg))
           rules))

let to_syntax rules =
  Asp.Syntax.program
    (List.map
       (fun r ->
         Asp.Syntax.rule
           ~neg:(List.map atom r.neg)
           (List.map atom r.head)
           (List.map atom r.pos))
       rules)

let subsets l =
  List.fold_left
    (fun acc x -> acc @ List.map (fun s -> x :: s) acc)
    [ [] ] l

let brute_stable rules =
  let satisfies m (h, p, n) =
    (not
       (List.for_all (fun a -> List.mem a m) p
       && List.for_all (fun a -> not (List.mem a m)) n))
    || List.exists (fun a -> List.mem a m) h
  in
  let is_model m rs = List.for_all (satisfies m) rs in
  let stable m =
    let reduct =
      List.filter_map
        (fun r ->
          if List.exists (fun a -> List.mem a m) r.neg then None
          else Some (r.head, r.pos, []))
        rules
    in
    is_model m (List.map (fun (h, p, n) -> (h, p, n)) reduct)
    && not
         (List.exists
            (fun m' ->
              List.length m' < List.length m
              && List.for_all (fun a -> List.mem a m) m'
              && is_model m' reduct)
            (subsets m))
  in
  List.filter stable (subsets atoms)
  |> List.map (List.sort compare)
  |> List.sort compare

let prop_asp_differential =
  QCheck.Test.make ~count:150 ~name:"stable models = brute-force definition"
    arb_program (fun rules ->
      let engine =
        Asp.Stable.models (to_syntax rules) []
        |> List.map (fun m ->
               Fact.Set.elements m
               |> List.map (fun (f : Fact.t) -> f.rel)
               |> List.sort compare)
        |> List.sort compare
      in
      engine = brute_stable rules)

let prop_shift_differential =
  QCheck.Test.make ~count:150 ~name:"shifted program agrees when HCF"
    arb_program (fun rules ->
      let program = to_syntax rules in
      if not (Asp.Shift.is_head_cycle_free program) then true
      else
        let norm models =
          models
          |> List.map (fun m ->
                 Fact.Set.elements m |> List.map Fact.to_string |> List.sort compare)
          |> List.sort compare
        in
        norm (Asp.Stable.models program [])
        = norm (Asp.Stable.models (Asp.Shift.program program) []))

let test_brute_sanity () =
  (* p :- not q; q :- not p gives {p} and {q} under the brute checker. *)
  let rules =
    [
      { head = [ "p0" ]; pos = []; neg = [ "p1" ] };
      { head = [ "p1" ]; pos = []; neg = [ "p0" ] };
    ]
  in
  check
    Alcotest.(list (list string))
    "two models"
    [ [ "p0" ]; [ "p1" ] ]
    (brute_stable rules);
  ignore (fact "p0")

let suite =
  [
    Alcotest.test_case "edit distance" `Quick test_edit_distance;
    Alcotest.test_case "MD chase merges duplicates" `Quick test_md_chase;
    Alcotest.test_case "MD resolution policies" `Quick test_md_policies;
    Alcotest.test_case "duplicate clusters" `Quick test_clusters;
    Alcotest.test_case "matching + key repairs ([59])" `Quick
      test_resolve_with_key;
    Alcotest.test_case "prefix similarity" `Quick test_prefix_similarity;
    Alcotest.test_case "signal suggestions (HoloClean-ish)" `Quick
      test_signals_suggest;
    Alcotest.test_case "signal apply" `Quick test_signals_apply;
    Alcotest.test_case "low confidence left to humans" `Quick
      test_signals_low_confidence_skipped;
    Alcotest.test_case "signals reject denials" `Quick test_signals_reject_denials;
    Alcotest.test_case "brute-force stable checker sanity" `Quick
      test_brute_sanity;
    QCheck_alcotest.to_alcotest prop_asp_differential;
    QCheck_alcotest.to_alcotest prop_shift_differential;
  ]
