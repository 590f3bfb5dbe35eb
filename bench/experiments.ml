(* E1..E14: executable reproductions of every worked example in the paper,
   printed as paper-expectation vs measured-result (see DESIGN.md's
   per-experiment index and EXPERIMENTS.md for the record). *)

module Value = Relational.Value
module Instance = Relational.Instance
module Fact = Relational.Fact
module Tid = Relational.Tid
module P = Workload.Paper

type outcome = { id : string; title : string; expected : string; measured : string; ok : bool }

let rows_str rows =
  String.concat "; "
    (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows)

let deltas_str repairs =
  String.concat " | "
    (List.map
       (fun r ->
         Repairs.Repair.delta r |> Fact.Set.elements
         |> List.map Fact.to_string |> String.concat ",")
       repairs)

(* E1: Examples 2.1-2.2 — residue rewriting under the IND. *)
let e1 () =
  let rows =
    Rewriting.Residue_rewrite.consistent_answers P.Supply.items_query
      P.Supply.schema [ P.Supply.ind ] P.Supply.instance
  in
  {
    id = "E1";
    title = "residue rewriting under the inclusion dependency (Ex 2.1-2.2)";
    expected = "consistent items I1, I2 (I3 dropped)";
    measured = rows_str rows;
    ok = rows = [ [ Value.str "I1" ]; [ Value.str "I2" ] ];
  }

(* E2: Example 3.1-3.2 — S-repairs and consistent answers. *)
let e2 () =
  let repairs =
    Repairs.S_repair.enumerate P.Supply.instance P.Supply.schema [ P.Supply.ind ]
  in
  let answers =
    let eng =
      Cqa.Engine.create ~schema:P.Supply.schema ~ics:[ P.Supply.ind ]
        P.Supply.instance
    in
    Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng
      P.Supply.items_query
  in
  let d3 =
    Instance.of_rows P.Supply.schema
      [
        ("Supply", [ [ Value.str "C1"; Value.str "R1"; Value.str "I1" ] ]);
        ("Articles", [ [ Value.str "I1" ]; [ Value.str "I2" ] ]);
      ]
  in
  let d3_rejected =
    not
      (Repairs.Check.is_s_repair ~original:P.Supply.instance P.Supply.schema
         [ P.Supply.ind ] d3)
  in
  {
    id = "E2";
    title = "S-repairs D1, D2; D3 rejected; Cons(Q) = {I1, I2} (Ex 3.1-3.2)";
    expected = "2 repairs (delete dangling tuple / insert Articles(I3)); D3 non-minimal";
    measured =
      Printf.sprintf "%d repairs: %s; Cons(Q)=%s; D3 rejected: %b"
        (List.length repairs) (deltas_str repairs) (rows_str answers)
        d3_rejected;
    ok =
      List.length repairs = 2
      && answers = [ [ Value.str "I1" ]; [ Value.str "I2" ] ]
      && d3_rejected;
  }

(* E3: Examples 3.3-3.4 — key repairs and the SQL-style rewriting. *)
let e3 () =
  let eng =
    Cqa.Engine.create ~schema:P.Employee.schema ~ics:[ P.Employee.key ]
      P.Employee.instance
  in
  let full = Cqa.Engine.consistent_answers eng P.Employee.full_query in
  let names = Cqa.Engine.consistent_answers eng P.Employee.names_query in
  let rewritten =
    Rewriting.Residue_rewrite.consistent_answers P.Employee.full_query
      P.Employee.schema [ P.Employee.key ] P.Employee.instance
  in
  {
    id = "E3";
    title = "Employee key repairs; Cons(Q1), Cons(Q2); rewriting (Ex 3.3-3.4)";
    expected = "Cons(Q1)={(smith,3),(stowe,7)}; Cons(Q2)={page,smith,stowe}; rewriting = Cons(Q1)";
    measured =
      Printf.sprintf "Q1: %s | Q2: %s | rewriting: %s" (rows_str full)
        (rows_str names) (rows_str rewritten);
    ok =
      full = [ [ Value.str "smith"; Value.int 3 ]; [ Value.str "stowe"; Value.int 7 ] ]
      && names = [ [ Value.str "page" ]; [ Value.str "smith" ]; [ Value.str "stowe" ] ]
      && rewritten = full;
  }

(* E4: Example 3.5 — repair program stable models. *)
let e4 () =
  let models =
    Asp.Stable.models
      (Repair_programs.Compile.repair_program P.Denial.schema [ P.Denial.kappa ])
      (Repair_programs.Compile.edb_of_instance P.Denial.instance)
  in
  let via_asp =
    Repair_programs.Asp_cqa.repairs P.Denial.instance P.Denial.schema
      [ P.Denial.kappa ]
  in
  let via_hg =
    Repairs.S_repair.enumerate P.Denial.instance P.Denial.schema [ P.Denial.kappa ]
  in
  let same =
    List.sort compare (List.map Instance.facts via_asp)
    = List.sort compare
        (List.map (fun (r : Repairs.Repair.t) -> Instance.facts r.repaired) via_hg)
  in
  {
    id = "E4";
    title = "repair program: 3 stable models = 3 S-repairs (Ex 3.5)";
    expected = "3 stable models, matching D1, D2, D3";
    measured =
      Printf.sprintf "%d stable models; repairs match hypergraph engine: %b"
        (List.length models) same;
    ok = List.length models = 3 && same;
  }

(* E5: Figure 1 / Example 4.1 — conflict hypergraph, S- and C-repairs. *)
let e5 () =
  let g =
    Constraints.Conflict_graph.build P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  let srs =
    Repairs.S_repair.enumerate P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  let crs =
    Repairs.C_repair.enumerate P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  {
    id = "E5";
    title = "conflict hypergraph: 4 S-repairs, 3 C-repairs (Fig 1 / Ex 4.1)";
    expected = "3 hyperedges; S-repairs D1..D4; C-repairs D2, D3, D4";
    measured =
      Printf.sprintf "%d edges; %d S-repairs; %d C-repairs"
        (List.length g.Constraints.Conflict_graph.edges)
        (List.length srs) (List.length crs);
    ok =
      List.length g.Constraints.Conflict_graph.edges = 3
      && List.length srs = 4
      && List.length crs = 3;
  }

(* E6: Example 4.2 — weak constraints select C-repair models. *)
let e6 () =
  let crs_asp =
    Repair_programs.Asp_cqa.c_repairs P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  let crs_hs =
    Repairs.C_repair.enumerate P.Hypergraph.instance P.Hypergraph.schema
      P.Hypergraph.dcs
  in
  let same =
    List.sort compare (List.map Instance.facts crs_asp)
    = List.sort compare
        (List.map (fun (r : Repairs.Repair.t) -> Instance.facts r.repaired) crs_hs)
  in
  {
    id = "E6";
    title = "weak constraints = C-repairs (Ex 4.2)";
    expected = "optimal stable models are exactly the 3 C-repairs";
    measured = Printf.sprintf "%d optimal models; agree: %b" (List.length crs_asp) same;
    ok = List.length crs_asp = 3 && same;
  }

(* E7: Example 4.3 — null-based tuple repair for the tgd. *)
let e7 () =
  let repairs =
    Repairs.S_repair.enumerate P.Supply.instance_with_cost
      P.Supply.schema_with_cost [ P.Supply.tgd ]
  in
  let has_null_insert =
    List.exists
      (fun r ->
        Fact.Set.mem
          (Fact.make "Articles" [ Value.str "I3"; Value.Null ])
          r.Repairs.Repair.inserted)
      repairs
  in
  {
    id = "E7";
    title = "null-padded insertion repair for the tgd (Ex 4.3)";
    expected = "2 repairs: delete Supply(C2,R1,I3) or insert Articles(I3, NULL)";
    measured =
      Printf.sprintf "%d repairs: %s" (List.length repairs) (deltas_str repairs);
    ok = List.length repairs = 2 && has_null_insert;
  }

(* E8: Example 4.4 — attribute-level null repairs. *)
let e8 () =
  let repairs =
    Repairs.Attr_repair.enumerate P.Denial.instance P.Denial.schema
      [ P.Denial.kappa ]
  in
  let sets =
    List.map
      (fun (r : Repairs.Attr_repair.t) ->
        Tid.Cell.Set.elements r.changes
        |> List.map (Format.asprintf "%a" Tid.Cell.pp))
      repairs
  in
  let has s = List.mem s sets in
  {
    id = "E8";
    title = "attribute-level NULL repairs (Ex 4.4)";
    expected =
      "paper displays change sets {ι6[1]} and {ι1[2],ι3[2]}; minimal-change \
       semantics yields 7 minimal sets including both";
    measured =
      Printf.sprintf "%d minimal change sets: %s" (List.length sets)
        (String.concat " | " (List.map (String.concat ",") sets));
    ok = List.length sets = 7 && has [ "t6[1]" ] && has [ "t1[2]"; "t3[2]" ];
  }

(* E9: Examples 5.1-5.2 — GAV mediation and global CQA. *)
let e9 () =
  let gav =
    Integration.Gav.make P.Universities.global_schema P.Universities.gav_views
  in
  let retrieved =
    Integration.Gav.retrieved_instance gav P.Universities.sources_52
  in
  let violated =
    not
      (Constraints.Violation.is_consistent retrieved
         P.Universities.global_schema [ P.Universities.global_fd ])
  in
  let rows =
    Integration.Global_cqa.consistent_answers gav
      ~sources:P.Universities.sources_52 ~ics:[ P.Universities.global_fd ]
      P.Universities.students_query
  in
  {
    id = "E9";
    title = "GAV mediation; global FD violated; consistent global answers (Ex 5.1-5.2)";
    expected = "number 101 inconsistent (john vs sue); consistent: (102,mary), (103,claire)";
    measured =
      Printf.sprintf "global FD violated: %b; consistent answers: %s" violated
        (rows_str rows);
    ok =
      violated
      && rows
         = [
             [ Value.str "102"; Value.str "mary" ];
             [ Value.str "103"; Value.str "claire" ];
           ];
  }

(* E10: Section 6 — CFDs and quality answers. *)
let e10 () =
  let fd_holds =
    Constraints.Violation.is_consistent P.Customers.instance P.Customers.schema
      [ P.Customers.fd1 ]
    && Constraints.Violation.is_consistent P.Customers.instance
         P.Customers.schema [ P.Customers.fd2 ]
  in
  let cfd_violated =
    not
      (Constraints.Violation.is_consistent P.Customers.instance
         P.Customers.schema [ P.Customers.cfd ])
  in
  let quality =
    Cleaning.Quality.quality_answers P.Customers.instance P.Customers.schema
      [ P.Customers.cfd ] P.Customers.names_query
  in
  {
    id = "E10";
    title = "CFD [CC=44,Zip]->[Street] violated while plain FDs hold (Sec 6)";
    expected = "FDs hold, CFD violated; quality-certain name: joe";
    measured =
      Printf.sprintf "FDs hold: %b; CFD violated: %b; quality names: %s" fd_holds
        cfd_violated (rows_str quality);
    ok = fd_holds && cfd_violated && quality = [ [ Value.str "joe" ] ];
  }

(* E11: Example 7.1 — causes and responsibilities. *)
let e11 () =
  let rho tid =
    Causality.Cause.responsibility P.Denial.instance P.Denial.schema P.Denial.q
      (Tid.of_int tid)
  in
  let measured =
    Printf.sprintf "ρ(ι6)=%.2f ρ(ι1)=%.2f ρ(ι3)=%.2f ρ(ι4)=%.2f ρ(ι2)=%.2f"
      (rho 6) (rho 1) (rho 3) (rho 4) (rho 2)
  in
  {
    id = "E11";
    title = "causes for Q: counterfactual and actual (Ex 7.1)";
    expected = "S(a3): ρ=1; R(a4,a3), R(a3,a3), S(a4): ρ=1/2; others 0";
    measured;
    ok =
      rho 6 = 1.0 && rho 1 = 0.5 && rho 3 = 0.5 && rho 4 = 0.5 && rho 2 = 0.0
      && rho 5 = 0.0;
  }

(* E12: Example 7.2 — cause computation via repair programs. *)
let e12 () =
  let asp =
    Repair_programs.Cause_rules.responsibilities P.Denial.instance
      P.Denial.schema P.Denial.q
  in
  let direct =
    Causality.Cause.actual_causes P.Denial.instance P.Denial.schema P.Denial.q
    |> List.map (fun (c : Causality.Cause.t) -> (c.tid, c.responsibility))
  in
  let pairs =
    Repair_programs.Cause_rules.cau_con_pairs P.Denial.instance P.Denial.schema
      P.Denial.q
  in
  {
    id = "E12";
    title = "causes via extended repair program (Ex 7.2)";
    expected = "ASP responsibilities = repair-connection ones; CauCon pairs from models";
    measured =
      Printf.sprintf "agree: %b; %d CauCon pairs" (asp = direct)
        (List.length pairs);
    ok = asp = direct && List.length pairs = 4;
  }

(* E13: Example 7.3 — attribute-level causes. *)
let e13 () =
  let rho tid pos =
    Causality.Attr_cause.responsibility P.Denial.instance P.Denial.schema
      P.Denial.q
      (Tid.Cell.make (Tid.of_int tid) pos)
  in
  {
    id = "E13";
    title = "attribute-level causes (Ex 7.3)";
    expected = "ι6[1] counterfactual (ρ=1); ι1[2] actual with Γ={ι3[2]} (ρ=1/2)";
    measured = Printf.sprintf "ρ(ι6[1])=%.2f ρ(ι1[2])=%.2f" (rho 6 1) (rho 1 2);
    ok = rho 6 1 = 1.0 && rho 1 2 = 0.5;
  }

(* E14: Example 7.4 — causality under the inclusion dependency. *)
let e14 () =
  let rho q ics tid =
    Causality.Under_ics.responsibility P.Courses.instance P.Courses.schema ~ics q
      ~answer:P.Courses.john (Tid.of_int tid)
  in
  let qa = P.Courses.q and qc = P.Courses.q2 in
  let psi = [ P.Courses.psi ] in
  let third = 1.0 /. 3.0 in
  {
    id = "E14";
    title = "causality under the IND ψ (Ex 7.4)";
    expected =
      "Q: ι1 stays ρ=1, ι4/ι8 drop to 0 under ψ; Q2: ι4/ι8 drop from 1/2 to 1/3";
    measured =
      Printf.sprintf
        "Q: ρψ(ι1)=%.2f ρψ(ι4)=%.2f ρψ(ι8)=%.2f; Q2: ρ(ι4)=%.2f→%.3f ρ(ι8)=%.2f→%.3f"
        (rho qa psi 1) (rho qa psi 4) (rho qa psi 8) (rho qc [] 4)
        (rho qc psi 4) (rho qc [] 8) (rho qc psi 8);
    ok =
      rho qa psi 1 = 1.0
      && rho qa psi 4 = 0.0
      && rho qa psi 8 = 0.0
      && rho qc [] 4 = 0.5
      && rho qc psi 4 = third
      && rho qc [] 8 = 0.5
      && rho qc psi 8 = third;
  }

let all : (string * (unit -> outcome)) list =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14);
  ]

let run_one (id, f) =
  let o = f () in
  Printf.printf "== %s: %s ==\n" o.id o.title;
  Printf.printf "  paper:    %s\n" o.expected;
  Printf.printf "  measured: %s\n" o.measured;
  Printf.printf "  [%s]\n\n" (if o.ok then "OK" else "MISMATCH");
  ignore id;
  o.ok

let run ids =
  let selected =
    match ids with
    | [] -> all
    | _ -> List.filter (fun (id, _) -> List.mem id ids) all
  in
  let results = List.map run_one selected in
  let passed = List.length (List.filter Fun.id results) in
  Printf.printf "experiments: %d/%d reproduced\n\n" passed (List.length results);
  passed = List.length results
