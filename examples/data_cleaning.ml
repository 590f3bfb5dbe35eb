(* Data cleaning with conditional functional dependencies (paper, Section
   6): quality answers, answer frequencies over the repair space, and
   one-shot cost-based cleaning.

     dune exec examples/data_cleaning.exe
*)

module Value = Relational.Value
module Schema = Relational.Schema
module Instance = Relational.Instance
open Logic

let v = Value.str
let i = Value.int

let () =
  (* The customer table of Section 6. *)
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

  (* The plain FDs of the example hold... *)
  let fd1 = Constraints.Ic.fd ~rel:"Cust" ~lhs:[ 0; 1; 2 ] ~rhs:[ 4; 5; 6 ] in
  let fd2 = Constraints.Ic.fd ~rel:"Cust" ~lhs:[ 0; 1 ] ~rhs:[ 5 ] in
  Format.printf "plain FDs hold? %b %b@."
    (Constraints.Violation.is_consistent db schema [ fd1 ])
    (Constraints.Violation.is_consistent db schema [ fd2 ]);

  (* ... but the CFD [CC=44, Zip] -> [Street] does not: UK zips determine
     the street, and mike and rick share EH4 8LE with different streets. *)
  let cfd =
    Constraints.Ic.cfd ~rel:"Cust" ~lhs:[ 0; 6 ] ~rhs:[ 4 ]
      ~pat:[ (0, Some (Value.int 44)); (6, None); (4, None) ]
  in
  Format.printf "CFD holds? %b@."
    (Constraints.Violation.is_consistent db schema [ cfd ]);

  (* Quality answers: what is certain across all repairs of the CFD. *)
  let names =
    Cq.make ~name:"names" [ Term.var "N" ]
      [
        Atom.make "Cust"
          [
            Term.var "CC"; Term.var "AC"; Term.var "PH"; Term.var "N";
            Term.var "ST"; Term.var "CT"; Term.var "ZP";
          ];
      ]
  in
  let show label rows =
    Format.printf "%s: %s@." label
      (String.concat ", "
         (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  in
  show "quality-certain names" (Cleaning.Quality.quality_answers db schema [ cfd ] names);

  Format.printf "answer frequencies:@.";
  List.iter
    (fun (row, freq) ->
      Format.printf "  %-6s %.2f@."
        (String.concat "," (List.map Value.to_string row))
        freq)
    (Cleaning.Quality.answer_frequencies db schema [ cfd ] names);

  (* One-shot heuristic cleaning: overwrite the less-supported street. *)
  let result = Cleaning.Cost_clean.clean db schema [ cfd ] in
  Format.printf "@.cost-based cleaning: %d change(s)@." result.Cleaning.Cost_clean.cost;
  List.iter
    (fun (c : Cleaning.Cost_clean.change) ->
      Format.printf "  %a: %a -> %a@." Relational.Tid.Cell.pp c.cell Value.pp
        c.old_value Value.pp c.new_value)
    result.Cleaning.Cost_clean.changes;
  Format.printf "cleaned instance consistent? %b@."
    (Constraints.Violation.is_consistent result.Cleaning.Cost_clean.cleaned
       schema [ cfd ]);

  (* Inconsistency measures before and after. *)
  let report label inst =
    Format.printf "%s:@." label;
    List.iter
      (fun (name, x) -> Format.printf "  %-25s %.3f@." name x)
      (Measures.Degree.all inst schema [ cfd ])
  in
  report "measures (dirty)" db;
  report "measures (cleaned)" result.Cleaning.Cost_clean.cleaned
