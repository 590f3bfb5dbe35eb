(* The paper's running supply-chain example (Examples 2.1, 2.2, 3.1, 4.3):
   an inclusion dependency from shipped items to the article catalogue,
   the residue-based rewriting that started CQA, and null-based repairs
   for the tgd variant.

     dune exec examples/supply_chain.exe
*)

module Value = Relational.Value
module Schema = Relational.Schema
module Instance = Relational.Instance
open Logic

let v = Value.str

let () =
  (* Example 2.1's instance: I3 is shipped but not catalogued. *)
  let schema =
    Schema.of_list
      [ ("Supply", [ "company"; "receiver"; "item" ]); ("Articles", [ "item" ]) ]
  in
  let db =
    Instance.of_rows schema
      [
        ( "Supply",
          [
            [ v "C1"; v "R1"; v "I1" ];
            [ v "C2"; v "R2"; v "I2" ];
            [ v "C2"; v "R1"; v "I3" ];
          ] );
        ("Articles", [ [ v "I1" ]; [ v "I2" ] ]);
      ]
  in
  let ind = Constraints.Ic.ind ~sub:("Supply", [ 2 ]) ~sup:("Articles", [ 0 ]) in
  Format.printf "ID satisfied? %b@."
    (Constraints.Violation.is_consistent db schema [ ind ]);

  (* The query Q(z): what items are supplied?  Dirty answers include I3. *)
  let q =
    Cq.make ~name:"items" [ Term.var "Z" ]
      [ Atom.make "Supply" [ Term.var "X"; Term.var "Y"; Term.var "Z" ] ]
  in
  let show label rows =
    Format.printf "%s: %s@." label
      (String.concat ", "
         (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  in
  show "plain answers" (Cq.answers q db);

  (* Example 2.2: the residue rewriting appends Articles(z); evaluated on
     the dirty instance it returns exactly the consistent answers. *)
  let rewritten = Rewriting.Residue_rewrite.rewrite_ics q schema [ ind ] in
  Format.printf "rewritten query: %a@." Formula.pp rewritten;
  show "consistent answers (rewriting)"
    (Rewriting.Residue_rewrite.consistent_answers q schema [ ind ] db);

  (* Example 3.1: the two S-repairs — delete the dangling tuple, or insert
     the missing article. *)
  List.iteri
    (fun i r -> Format.printf "repair %d:@.%a@." (i + 1) Repairs.Repair.pp r)
    (Repairs.S_repair.enumerate db schema [ ind ]);

  (* Example 4.3: with a cost attribute, the tgd acquires an existential
     variable and the insertion repair pads it with NULL. *)
  let schema' =
    Schema.of_list
      [
        ("Supply", [ "company"; "receiver"; "item" ]);
        ("Articles", [ "item"; "cost" ]);
      ]
  in
  let db' =
    Instance.of_rows schema'
      [
        ( "Supply",
          [
            [ v "C1"; v "R1"; v "I1" ];
            [ v "C2"; v "R2"; v "I2" ];
            [ v "C2"; v "R1"; v "I3" ];
          ] );
        ("Articles", [ [ v "I1"; Value.int 50 ]; [ v "I2"; Value.int 30 ] ]);
      ]
  in
  let tgd = Constraints.Ic.ind ~sub:("Supply", [ 2 ]) ~sup:("Articles", [ 0 ]) in
  Format.printf "@.tgd variant (Example 4.3):@.";
  List.iteri
    (fun i r -> Format.printf "repair %d:@.%a@." (i + 1) Repairs.Repair.pp r)
    (Repairs.S_repair.enumerate db' schema' [ tgd ]);

  (* Consistent answers intersect over both repairs: the deletion repair
     loses I3, so only I1 and I2 are consistent. *)
  let engine = Cqa.Engine.create ~schema:schema' ~ics:[ tgd ] db' in
  show "consistent items (repair enumeration)"
    (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration engine q)
