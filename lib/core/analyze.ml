module Finding = Analysis.Finding
module Classify = Analysis.Classify

type query_report = {
  name : string;
  classification : Classify.t;
  route : Engine.route;
  findings : Finding.t list;
}

type t = {
  constraint_findings : Finding.t list;
  program_findings : Finding.t list;
  program_rules : int;
  queries : query_report list;
}

let query_names (doc : Parse.document) =
  List.map fst doc.queries |> List.sort_uniq String.compare

let report_of_query (doc : Parse.document) name =
  let u = Parse.find_ucq doc name in
  let { Engine.classification; route; _ } =
    Engine.plan_ucq
      (Engine.create ~schema:doc.schema ~ics:doc.ics doc.instance)
      u
  in
  let findings =
    (match classification.Classify.witness with
    | Classify.Unsafe_query v ->
        [
          Finding.make Finding.Error ~code:"query/unsafe" ~subject:name
            (Printf.sprintf "variable %s is not bound by any body atom" v);
        ]
    | _ -> [])
    @ List.concat_map
        (Analysis.Lint.query_findings ~subject:name)
        u.Logic.Ucq.disjuncts
  in
  { name; classification; route; findings }

let repair_program_report (doc : Parse.document) =
  (* The repair program exists for denial-class constraint sets only;
     anything else (INDs) is compiled by other layers. *)
  match
    Repair_programs.Compile.repair_program doc.schema doc.ics
  with
  | program ->
      (List.length program.Asp.Syntax.rules, Analysis.Lint.asp_program program)
  | exception Invalid_argument _ -> (0, [])

let document (doc : Parse.document) =
  let program_rules, program_findings = repair_program_report doc in
  {
    constraint_findings = Analysis.Ic_analysis.analyze doc.schema doc.ics;
    program_findings;
    program_rules;
    queries = List.map (report_of_query doc) (query_names doc);
  }

let has_errors t =
  Finding.has_errors t.constraint_findings
  || Finding.has_errors t.program_findings
  || List.exists (fun q -> Finding.has_errors q.findings) t.queries

let section title findings =
  Printf.sprintf "-- %s: %d finding(s), %d error(s)" title
    (List.length (Finding.sort findings))
    (Finding.errors findings)
  :: Finding.to_lines findings

let query_report_lines q =
  let prefix line = Printf.sprintf "query %s: %s" q.name line in
  List.map prefix (Classify.to_lines q.classification)
  @ [ prefix (Printf.sprintf "route %s" (Engine.route_label q.route)) ]
  @ List.map Finding.to_line (Finding.sort q.findings)

let lines t =
  section "constraints" t.constraint_findings
  @ (if t.program_rules = 0 then []
     else
       section
         (Printf.sprintf "repair-program (%d rules)" t.program_rules)
         t.program_findings)
  @ Printf.sprintf "-- queries: %d" (List.length t.queries)
    :: List.concat_map query_report_lines t.queries

let query_lines (doc : Parse.document) name =
  if not (List.mem_assoc name doc.queries) then raise Not_found;
  query_report_lines (report_of_query doc name)
