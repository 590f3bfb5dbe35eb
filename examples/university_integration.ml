(* Virtual data integration (paper, Section 5, Examples 5.1-5.2): two
   university sources mediated under GAV; a global functional dependency
   that no source can be asked to enforce is applied at query time via CQA.

     dune exec examples/university_integration.exe
*)

module Value = Relational.Value
module Schema = Relational.Schema
module Fact = Relational.Fact
open Logic

let v = Value.str
let fact rel values = Fact.make rel (List.map v values)

let () =
  (* The mediator's global schema and the GAV view definitions (8)-(9). *)
  let global_schema =
    Schema.of_list [ ("Stds", [ "number"; "name"; "univ"; "field" ]) ]
  in
  let x = Term.var "X" and y = Term.var "Y" and z = Term.var "Z" in
  let gav =
    Integration.Gav.make global_schema
      [
        Datalog.Rule.make
          (Atom.make "Stds" [ x; y; Term.str "cu"; z ])
          [ Atom.make "CUstds" [ x; y ]; Atom.make "SpecCU" [ x; z ] ];
        Datalog.Rule.make
          (Atom.make "Stds" [ x; y; Term.str "ou"; z ])
          [ Atom.make "OUstds" [ x; y ]; Atom.make "SpecOU" [ x; z ] ];
      ]
  in

  (* Example 5.2's sources: number 101 names john at Carleton but sue at
     Ottawa. *)
  let sources =
    [
      fact "CUstds" [ "101"; "john" ];
      fact "CUstds" [ "102"; "mary" ];
      fact "SpecCU" [ "101"; "alg" ];
      fact "SpecCU" [ "102"; "ai" ];
      fact "OUstds" [ "103"; "claire" ];
      fact "OUstds" [ "104"; "peter" ];
      fact "OUstds" [ "101"; "sue" ];
      fact "SpecOU" [ "103"; "db" ];
      fact "SpecOU" [ "101"; "bio" ];
    ]
  in

  let retrieved = Integration.Gav.retrieved_instance gav sources in
  Format.printf "retrieved global instance:@.%a@." Relational.Instance.pp
    retrieved;

  (* The global FD Number -> Name cannot be checked at the sources (each is
     locally consistent) and the mediator cannot update them. *)
  let global_fd = Constraints.Ic.fd ~rel:"Stds" ~lhs:[ 0 ] ~rhs:[ 1 ] in
  Format.printf "global FD holds? %b@."
    (Constraints.Violation.is_consistent retrieved global_schema [ global_fd ]);

  (* Query: student numbers and names.  Plain GAV answering leaks both
     names for 101; CQA keeps only what every virtual repair agrees on. *)
  let q =
    Cq.make ~name:"students"
      [ Term.var "N"; Term.var "M" ]
      [ Atom.make "Stds" [ Term.var "N"; Term.var "M"; Term.var "U"; Term.var "F" ] ]
  in
  let show label rows =
    Format.printf "%s:@." label;
    List.iter
      (fun row ->
        Format.printf "  %s@."
          (String.concat ", " (List.map Value.to_string row)))
      rows
  in
  show "plain global answers" (Integration.Gav.answer gav sources q);
  List.iter
    (fun (label, engine) ->
      show
        (Printf.sprintf "consistent global answers (%s)" label)
        (Integration.Global_cqa.consistent_answers ~engine gav ~sources
           ~ics:[ global_fd ] q))
    [ ("repair enumeration", `Repair_enumeration); ("ASP", `Asp) ];

  (* LAV view of the same data: CUstds as a view over Stds; field values
     are unknown at the source, so they come back as labeled nulls and are
     filtered from certain answers. *)
  let lav =
    Integration.Lav.make global_schema
      [
        {
          Integration.Lav.source = "CUstds";
          head_vars = [ "n"; "m" ];
          body =
            [
              Atom.make "Stds"
                [ Term.var "n"; Term.var "m"; Term.str "cu"; Term.var "f" ];
            ];
        };
      ]
  in
  let cu_only = [ fact "CUstds" [ "101"; "john" ]; fact "CUstds" [ "102"; "mary" ] ] in
  show "LAV certain answers (numbers, names)"
    (Integration.Lav.certain_answers lav cu_only q)
