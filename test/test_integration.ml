module Schema = Relational.Schema
module Fact = Relational.Fact
module Value = Relational.Value
module Gav = Integration.Gav
module Lav = Integration.Lav
module Global_cqa = Integration.Global_cqa
open Logic

let check = Alcotest.check
let v = Value.str
let fact rel values = Fact.make rel (List.map v values)
let rows_to_strings rows = List.map (List.map Value.to_string) rows

(* Example 5.1: two university sources mediated under GAV. *)
let global_schema =
  Schema.of_list [ ("Stds", [ "number"; "name"; "univ"; "field" ]) ]

let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let u = Term.var "u"
let w = Term.var "w"

let gav =
  Gav.make global_schema
    [
      Datalog.Rule.make
        (Atom.make "Stds" [ x; y; Term.str "cu"; z ])
        [ Atom.make "CUstds" [ x; y ]; Atom.make "SpecCU" [ x; z ] ];
      Datalog.Rule.make
        (Atom.make "Stds" [ x; y; Term.str "ou"; z ])
        [ Atom.make "OUstds" [ x; y ]; Atom.make "SpecOU" [ x; z ] ];
    ]

let sources_51 =
  [
    fact "CUstds" [ "101"; "john" ];
    fact "CUstds" [ "102"; "mary" ];
    fact "OUstds" [ "103"; "claire" ];
    fact "OUstds" [ "104"; "peter" ];
    fact "SpecCU" [ "101"; "alg" ];
    fact "SpecCU" [ "102"; "ai" ];
    fact "SpecOU" [ "103"; "db" ];
  ]

let test_gav_retrieval () =
  let retrieved = Gav.retrieved_instance gav sources_51 in
  check Alcotest.int "three global students" 3
    (Relational.Instance.size retrieved)

let test_gav_query () =
  (* Names of students studying the same field at both universities: none
     in this data. *)
  let q =
    Cq.make [ x ]
      [
        Atom.make "Stds" [ z; x; Term.str "cu"; u ];
        Atom.make "Stds" [ w; x; Term.str "ou"; u ];
      ]
  in
  check Alcotest.int "no shared students" 0
    (List.length (Gav.answer gav sources_51 q))

(* Example 5.2: Ottawa U's table now has number 101 with a different name;
   the global FD Number → Name is violated at the mediator. *)
let sources_52 =
  sources_51
  @ [ fact "OUstds" [ "101"; "sue" ]; fact "SpecOU" [ "101"; "bio" ] ]

let global_fd = Constraints.Ic.fd ~rel:"Stds" ~lhs:[ 0 ] ~rhs:[ 1 ]

let q_names =
  Cq.make [ x; y ] [ Atom.make "Stds" [ x; y; u; z ] ]

let test_global_cqa () =
  let retrieved = Gav.retrieved_instance gav sources_52 in
  check Alcotest.bool "global FD violated" false
    (Constraints.Violation.is_consistent retrieved global_schema [ global_fd ]);
  let rows =
    Global_cqa.consistent_answers gav ~sources:sources_52 ~ics:[ global_fd ]
      q_names
  in
  check
    Alcotest.(list (list string))
    "101 excluded, others kept"
    [ [ "102"; "mary" ]; [ "103"; "claire" ] ]
    (rows_to_strings rows)

let test_global_cqa_engines_agree () =
  let by e =
    Global_cqa.consistent_answers ~engine:e gav ~sources:sources_52
      ~ics:[ global_fd ] q_names
  in
  check Alcotest.bool "repair-enum = asp" true
    (by `Repair_enumeration = by `Asp)

(* LAV: CUstds defined as a view over the global Stds (Section 5). *)
let lav =
  Lav.make global_schema
    [
      {
        Lav.source = "CUstds";
        head_vars = [ "n"; "m" ];
        body = [ Atom.make "Stds" [ Term.var "n"; Term.var "m"; Term.str "cu"; Term.var "f" ] ];
      };
    ]

let test_lav_canonical_and_certain () =
  let sources = [ fact "CUstds" [ "101"; "john" ]; fact "CUstds" [ "102"; "mary" ] ] in
  let canonical = Lav.canonical_instance lav sources in
  check Alcotest.int "two canonical tuples" 2 (Relational.Instance.size canonical);
  (* Certain answers: numbers and names are known... *)
  let q = Cq.make [ x; y ] [ Atom.make "Stds" [ x; y; u; z ] ] in
  check
    Alcotest.(list (list string))
    "names certain"
    [ [ "101"; "john" ]; [ "102"; "mary" ] ]
    (rows_to_strings (Lav.certain_answers lav sources q));
  (* ... but fields are labeled nulls and not certain. *)
  let qf = Cq.make [ z ] [ Atom.make "Stds" [ x; y; u; z ] ] in
  check Alcotest.int "fields unknown" 0
    (List.length (Lav.certain_answers lav sources qf))

let suite =
  [
    Alcotest.test_case "GAV retrieval (Ex 5.1)" `Quick test_gav_retrieval;
    Alcotest.test_case "GAV query by unfolding" `Quick test_gav_query;
    Alcotest.test_case "global CQA (Ex 5.2)" `Quick test_global_cqa;
    Alcotest.test_case "global CQA engines agree" `Quick
      test_global_cqa_engines_agree;
    Alcotest.test_case "LAV inverse rules" `Quick test_lav_canonical_and_certain;
  ]
