(* cqa — command-line front end: check consistency, enumerate repairs,
   answer queries consistently, measure inconsistency, explain answers.

   Input files use the line format of Cqa.Parse (see `cqa --help`). *)

let load path =
  try Cqa.Parse.document_of_file path with
  | Cqa.Parse.Error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" path line msg;
      exit 2
  | Sys_error msg ->
      prerr_endline msg;
      exit 2

let engine (doc : Cqa.Parse.document) =
  Cqa.Engine.create ~schema:doc.schema ~ics:doc.ics doc.instance

let pp_rows rows =
  List.iter
    (fun row ->
      (* A Boolean query's positive answer is the empty tuple. *)
      if row = [] then print_endline "true"
      else
        print_endline
          (String.concat ", " (List.map Relational.Value.to_string row)))
    rows

let query_of doc name =
  match Cqa.Parse.find_query doc name with
  | q -> q
  | exception Not_found ->
      Printf.eprintf "no query named %s in the input (declare `query %s(...) :- ...`)\n"
        name name;
      exit 2

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input document.")

(* --trace FILE: run the action with tracing into a private sink and
   write the collected spans as a Chrome trace_event file. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let result, spans = Obs.Trace.collect f in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Export.chrome spans);
          output_char oc '\n');
      Printf.eprintf "trace: %d span(s) written to %s\n%!"
        (List.length spans) path;
      result

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file of the run to $(docv) (open in \
           chrome://tracing or Perfetto).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Parallelism for repair enumeration and ASP candidate checking (1 \
           = sequential; tracing forces sequential execution).")

let with_jobs jobs f =
  Par.set_default_jobs jobs;
  f ()

let check_cmd =
  let run file trace jobs =
    let doc = load file in
    let witnesses =
      with_jobs jobs (fun () ->
          with_trace trace (fun () ->
              Constraints.Violation.all doc.instance doc.schema doc.ics))
    in
    if witnesses = [] then print_endline "consistent"
    else begin
      Printf.printf "inconsistent: %d violation(s)\n" (List.length witnesses);
      List.iter
        (fun w ->
          Format.printf "  %a@." Constraints.Violation.pp_witness w)
        witnesses;
      exit 1
    end
  in
  Cmd.v (Cmd.info "check" ~doc:"Check the instance against its constraints.")
    Term.(const run $ file_arg $ trace_arg $ jobs_arg)

let semantics_arg =
  Arg.(
    value
    & opt (enum [ ("s", `S); ("c", `C) ]) `S
    & info [ "semantics" ] ~docv:"S" ~doc:"Repair semantics: s (set-minimal) or c (cardinality).")

let repairs_cmd =
  let run file semantics trace jobs =
    let doc = load file in
    let repairs =
      with_jobs jobs (fun () ->
          with_trace trace (fun () ->
              match semantics with
              | `S -> Repairs.S_repair.enumerate doc.instance doc.schema doc.ics
              | `C -> Repairs.C_repair.enumerate doc.instance doc.schema doc.ics))
    in
    Printf.printf "%d repair(s)\n" (List.length repairs);
    List.iteri
      (fun i r ->
        Format.printf "repair %d:@.  %a@." (i + 1) Repairs.Repair.pp r)
      repairs
  in
  Cmd.v (Cmd.info "repairs" ~doc:"Enumerate the repairs of the instance.")
    Term.(const run $ file_arg $ semantics_arg $ trace_arg $ jobs_arg)

let method_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", `Auto);
             ("enum", `Repair_enumeration);
             ("rewriting", `Residue_rewriting);
             ("key-rewriting", `Key_rewriting);
             ("asp", `Asp);
             ("sat", `Sat);
           ])
        `Auto
    & info [ "method" ] ~docv:"M"
        ~doc:
          "CQA method: auto, enum, rewriting, key-rewriting (attack-graph \
           elimination-order rewriting; acyclic attack graphs under \
           primary keys), asp or sat (CAvSAT-style SAT compilation; \
           denial-class constraints).")

let query_arg =
  Arg.(required & opt (some string) None & info [ "query"; "q" ] ~docv:"NAME" ~doc:"Query name.")

let answers_cmd =
  let run file qname method_ trace jobs =
    let doc = load file in
    let u =
      match Cqa.Parse.find_ucq doc qname with
      | u -> u
      | exception Not_found ->
          Printf.eprintf
            "no query named %s in the input (declare `query %s(...) :- ...`)\n"
            qname qname;
          exit 2
    in
    let eng = engine doc in
    (match Cqa.Engine.refusal eng ~name:qname u method_ with
    | Some msg ->
        prerr_endline msg;
        exit 2
    | None -> ());
    let rows =
      with_jobs jobs @@ fun () ->
      with_trace trace (fun () ->
          Cqa.Engine.consistent_answers_ucq ~method_ eng u)
    in
    pp_rows rows
  in
  Cmd.v
    (Cmd.info "answers"
       ~doc:
         "Consistent answers to a named query (several query lines with one \
          name form a union).")
    Term.(const run $ file_arg $ query_arg $ method_arg $ trace_arg $ jobs_arg)

let degree_cmd =
  let run file =
    let doc = load file in
    List.iter
      (fun (name, x) -> Printf.printf "%-25s %.4f\n" name x)
      (Measures.Degree.all doc.instance doc.schema doc.ics)
  in
  Cmd.v
    (Cmd.info "degree" ~doc:"Inconsistency measures of the instance.")
    Term.(const run $ file_arg)

let causes_cmd =
  let run file qname =
    let doc = load file in
    let q = query_of doc qname in
    let causes = Causality.Cause.actual_causes doc.instance doc.schema q in
    if causes = [] then print_endline "no causes (query false?)"
    else
      List.iter
        (fun (c : Causality.Cause.t) ->
          Format.printf "%a  %a  responsibility %.3f@." Relational.Tid.pp c.tid
            Relational.Fact.pp
            (Relational.Instance.fact_of doc.instance c.tid)
            c.responsibility)
        causes
  in
  Cmd.v
    (Cmd.info "causes"
       ~doc:"Actual causes and responsibilities for a Boolean query.")
    Term.(const run $ file_arg $ query_arg)

let count_cmd =
  let run file trace jobs =
    let doc = load file in
    let s, c =
      try
        with_jobs jobs (fun () ->
            with_trace trace (fun () ->
                ( Repairs.Count.s_repairs doc.instance doc.schema doc.ics,
                  Repairs.Count.c_repairs doc.instance doc.schema doc.ics )))
      with Repairs.Count.Overflow msg ->
        prerr_endline msg;
        exit 2
    in
    Printf.printf "S-repairs: %d\n" s;
    Printf.printf "C-repairs: %d\n" c
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Count the repairs without materializing them all.")
    Term.(const run $ file_arg $ trace_arg $ jobs_arg)

let attr_repairs_cmd =
  let run file =
    let doc = load file in
    let repairs = Repairs.Attr_repair.enumerate doc.instance doc.schema doc.ics in
    Printf.printf "%d attribute repair(s)\n" (List.length repairs);
    List.iteri
      (fun i (r : Repairs.Attr_repair.t) ->
        Format.printf "repair %d: %a@." (i + 1) Repairs.Attr_repair.pp r)
      repairs
  in
  Cmd.v
    (Cmd.info "attr-repairs"
       ~doc:"Attribute-level NULL repairs (denial-class constraints).")
    Term.(const run $ file_arg)

let aggregate_cmd =
  let agg_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "agg" ] ~docv:"AGG"
          ~doc:"Aggregate: count, or sum:ATTR / min:ATTR / max:ATTR.")
  in
  let rel_arg =
    Arg.(required & opt (some string) None & info [ "rel" ] ~docv:"REL" ~doc:"Relation.")
  in
  let run file rel agg_spec =
    let doc = load file in
    let agg =
      match String.split_on_char ':' agg_spec with
      | [ "count" ] -> Repairs.Aggregate.Count_all
      | [ kind; attr ] -> (
          let pos =
            try Relational.Schema.attribute_index doc.schema ~rel ~attr
            with Not_found ->
              Printf.eprintf "unknown attribute %s of %s\n" attr rel;
              exit 2
          in
          match kind with
          | "sum" -> Repairs.Aggregate.Sum pos
          | "min" -> Repairs.Aggregate.Min pos
          | "max" -> Repairs.Aggregate.Max pos
          | _ ->
              Printf.eprintf "unknown aggregate %s\n" kind;
              exit 2)
      | _ ->
          Printf.eprintf "malformed aggregate %s\n" agg_spec;
          exit 2
    in
    let r = Repairs.Aggregate.range doc.instance doc.schema doc.ics ~rel agg in
    Printf.printf "glb %g\nlub %g\n" r.Repairs.Aggregate.glb r.Repairs.Aggregate.lub
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Range-consistent answer of an aggregate over all repairs.")
    Term.(const run $ file_arg $ rel_arg $ agg_arg)

let clean_cmd =
  let run file =
    let doc = load file in
    let result = Cleaning.Cost_clean.clean doc.instance doc.schema doc.ics in
    Printf.printf "%d change(s)\n" result.Cleaning.Cost_clean.cost;
    List.iter
      (fun (c : Cleaning.Cost_clean.change) ->
        Format.printf "  %a: %a -> %a@." Relational.Tid.Cell.pp c.cell
          Relational.Value.pp c.old_value Relational.Value.pp c.new_value)
      result.Cleaning.Cost_clean.changes;
    Format.printf "cleaned:@.%a@." Relational.Instance.pp
      result.Cleaning.Cost_clean.cleaned
  in
  Cmd.v
    (Cmd.info "clean" ~doc:"One-shot cost-based cleaning (FDs, keys, CFDs).")
    Term.(const run $ file_arg)

let sample_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let run file seed =
    let doc = load file in
    let r = Repairs.Operational.sample_repair ~seed doc.instance doc.schema doc.ics in
    Format.printf "%a@." Repairs.Repair.pp r
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"One repair sampled by the operational repairing process.")
    Term.(const run $ file_arg $ seed_arg)

let approx_cmd =
  let samples_arg =
    Arg.(value & opt int 5 & info [ "samples" ] ~docv:"N" ~doc:"Sampled repairs.")
  in
  let run file qname samples =
    let doc = load file in
    let q = query_of doc qname in
    let b = Cqa.Approx.bounds ~samples (engine doc) q in
    print_endline "under-approximation (guaranteed consistent):";
    pp_rows b.Cqa.Approx.under;
    print_endline "over-approximation (superset of consistent):";
    pp_rows b.Cqa.Approx.over;
    Printf.printf "interval closed: %b\n" b.Cqa.Approx.exact
  in
  Cmd.v
    (Cmd.info "approx"
       ~doc:"Polynomial-time bounds bracketing the consistent answers.")
    Term.(const run $ file_arg $ query_arg $ samples_arg)

let export_cmd =
  let rel_arg =
    Arg.(required & opt (some string) None & info [ "rel" ] ~docv:"REL" ~doc:"Relation.")
  in
  let run file rel =
    let doc = load file in
    print_string (Relational.Csv_io.to_csv doc.instance ~rel)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export one relation as CSV on stdout.")
    Term.(const run $ file_arg $ rel_arg)

let analyze_cmd =
  let opt_query_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"NAME"
          ~doc:"Restrict the report to this query's classification.")
  in
  let run file qname =
    let doc = load file in
    match qname with
    | Some name -> (
        match Cqa.Analyze.query_lines doc name with
        | lines -> List.iter print_endline lines
        | exception Not_found ->
            Printf.eprintf
              "no query named %s in the input (declare `query %s(...) :- ...`)\n"
              name name;
            exit 2)
    | None ->
        let report = Cqa.Analyze.document doc in
        List.iter print_endline (Cqa.Analyze.lines report);
        (* Error-severity findings fail the run: `cqa analyze` doubles as
           the CI lint gate over examples/. *)
        if Cqa.Analyze.has_errors report then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis without touching data: constraint-set \
          conformance and structure (key/FD interaction, IND cycles, weak \
          acyclicity), lints of the compiled repair program, and the \
          attack-graph complexity classifier with the method=auto route \
          for every query.  Exits 1 on error-severity findings.")
    Term.(const run $ file_arg $ opt_query_arg)

let program_cmd =
  let run file =
    let doc = load file in
    let program = Repair_programs.Compile.repair_program doc.schema doc.ics in
    Format.printf "%% repair program (stable models = S-repairs)@.%a@."
      Asp.Syntax.pp program;
    let edb = Repair_programs.Compile.edb_of_instance doc.instance in
    let ground = Asp.Ground.ground program edb in
    Format.printf "@.%% grounding: %d atoms, %d rules@." ground.Asp.Ground.natoms
      (List.length ground.Asp.Ground.rules)
  in
  Cmd.v
    (Cmd.info "program"
       ~doc:"Print the compiled ASP repair program and its grounding size.")
    Term.(const run $ file_arg)

(* --- report: render a workload dump as markdown --------------------- *)

let report_cmd =
  let module J = Gate.Tiny_json in
  let stats_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"STATS.json"
          ~doc:
            "Workload dump written by `cqa_server --workload-dump` (or any \
             JSON with the same {workload, sampler} shape).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "events" ] ~docv:"EVENTS.jsonl"
          ~doc:
            "The matching --events log; tail_trace/slow_query/anchor \
             records are summarized next to the statements store.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Fingerprints to list (by total wall).")
  in
  let num ?(default = 0.0) j key =
    Option.value ~default (Option.bind (J.member key j) J.to_num)
  in
  let int_of j key = int_of_float (num j key) in
  let str ?(default = "?") j key =
    Option.value ~default (Option.bind (J.member key j) J.to_str)
  in
  let list_of j key =
    Option.value ~default:[] (Option.bind (J.member key j) J.to_list)
  in
  let ms v = Printf.sprintf "%.2f" (v *. 1e3) in
  let pct v = Printf.sprintf "%.1f%%" (v *. 100.0) in
  (* A fingerprint inside a markdown table: escape the cell separator. *)
  let cell s =
    String.concat "\\|" (String.split_on_char '|' s)
  in
  let phases_text j =
    match J.member "phases" j with
    | Some (J.Obj kvs) when kvs <> [] ->
        String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s %sms" k
                 (ms (Option.value ~default:0.0 (J.to_num v))))
             kvs)
    | _ -> "-"
  in
  let run stats_path events_path top =
    let root =
      match J.of_file stats_path with
      | v -> v
      | exception J.Parse_error (pos, msg) ->
          Printf.eprintf "cqa report: %s: byte %d: %s\n" stats_path pos msg;
          exit 2
      | exception Sys_error msg ->
          Printf.eprintf "cqa report: %s\n" msg;
          exit 2
    in
    let w =
      match J.member "workload" root with
      | Some w -> w
      | None -> root (* accept a bare Obs.Stats.to_json document too *)
    in
    let p = print_endline in
    p "# CQA workload report";
    p "";
    p (Printf.sprintf "Source: `%s`" stats_path);
    p "";
    p "## Totals";
    p "";
    let total = num w "total_wall_s" in
    let attributed = num w "attributed_wall_s" in
    p (Printf.sprintf "- requests recorded: %d" (int_of w "recorded"));
    p
      (Printf.sprintf "- total request wall: %s ms (%s attributed to %d live \
                       fingerprint entries; %d evicted)"
         (ms total)
         (if total > 0.0 then pct (attributed /. total) else "100.0%")
         (List.length (list_of w "entries"))
         (int_of w "evicted"));
    p "";
    p (Printf.sprintf "## Top %d fingerprints (by total wall)" top);
    p "";
    p "| # | wall ms | calls | mean ms | p95 ms | cache h/m | rows | branch | fingerprint |";
    p "|---|---------|-------|---------|--------|-----------|------|--------|-------------|";
    let entries = list_of w "entries" in
    List.iteri
      (fun i e ->
        if i < top then begin
          p
            (Printf.sprintf "| %d | %s | %d | %s | %s | %d/%d | %d | %s | `%s` |"
               (i + 1)
               (ms (num e "wall_s"))
               (int_of e "calls")
               (ms (num e "mean_s"))
               (ms (num e "p95_s"))
               (int_of e "cache_hits") (int_of e "cache_misses")
               (int_of e "rows") (str e "branch")
               (cell (str e "fingerprint")));
          if phases_text e <> "-" then
            p (Printf.sprintf "|   |  phases: %s | | | | | | | |" (phases_text e))
        end)
      entries;
    p "";
    p "## Plan-branch cost centers";
    p "";
    p "| branch | calls | wall ms | share | p95 ms | errors | phases |";
    p "|--------|-------|---------|-------|--------|--------|--------|";
    List.iter
      (fun b ->
        p
          (Printf.sprintf "| %s | %d | %s | %s | %s | %d | %s |" (str b "branch")
             (int_of b "calls")
             (ms (num b "wall_s"))
             (pct (num b "share"))
             (ms (num b "p95_s"))
             (int_of b "errors") (phases_text b)))
      (list_of w "branches");
    p "";
    (match J.member "sampler" root with
    | Some (J.Obj _ as s) ->
        p "## Tail-sampled traces";
        p "";
        p
          (Printf.sprintf
             "- ring: %d offered, %d retained, %d overwritten (capacity %d)"
             (int_of s "seen") (int_of s "kept") (int_of s "overwritten")
             (int_of s "capacity"));
        List.iter
          (fun r ->
            p
              (Printf.sprintf "- req %d `%s` %s ms — %s (%d spans)"
                 (int_of r "req") (str r "command")
                 (ms (num r "wall_s"))
                 (str r "reason") (int_of r "spans")))
          (list_of s "retained");
        p ""
    | _ -> ());
    (match events_path with
    | None -> ()
    | Some path ->
        let counts = Hashtbl.create 8 in
        let anchors = ref [] in
        In_channel.with_open_text path (fun ic ->
            try
              while true do
                match In_channel.input_line ic with
                | None -> raise Exit
                | Some line when String.trim line = "" -> ()
                | Some line -> (
                    match J.parse line with
                    | j ->
                        let ev = str ~default:"?" j "ev" in
                        Hashtbl.replace counts ev
                          (1
                          + Option.value ~default:0
                              (Hashtbl.find_opt counts ev));
                        if ev = "anchor" then anchors := j :: !anchors
                    | exception _ -> ())
              done
            with Exit -> ());
        p (Printf.sprintf "## Event log (`%s`)" path);
        p "";
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
        |> List.sort compare
        |> List.iter (fun (k, v) -> p (Printf.sprintf "- %s: %d" k v));
        List.iter
          (fun a ->
            p
              (Printf.sprintf "- anchor `%s`: wall_ms=%d at ts_us=%d"
                 (str ~default:"-" a "label")
                 (int_of a "wall_ms") (int_of a "ts_us")))
          (List.rev !anchors);
        p "")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a markdown workload report from a `cqa_server \
          --workload-dump` JSON file (fingerprint statements, plan-branch \
          cost centers, tail-sampled traces) and optionally the matching \
          --events JSONL log.")
    Term.(const run $ stats_arg $ events_arg $ top_arg)

(* --- client: speak the cqa-serve protocol to a running server ------- *)

let client_cmd =
  let unix_arg =
    Arg.(
      value
      & opt string "/tmp/cqa-serve.sock"
      & info [ "unix" ] ~docv:"PATH" ~doc:"Unix-domain socket of the server.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Connect to TCP 127.0.0.1:$(docv) instead of a Unix socket.")
  in
  let load_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Load this document into --session before anything else.")
  in
  let session_arg =
    Arg.(
      value & opt string "default"
      & info [ "session" ] ~docv:"SID" ~doc:"Session id for --load.")
  in
  let exec_arg =
    Arg.(
      value & opt_all string []
      & info [ "e" ] ~docv:"CMD"
          ~doc:"Send this protocol command and print the response (may be \
                repeated); without -e, commands are read from stdin.")
  in
  let run unix_path port load session cmds =
    let addr =
      match port with
      | Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
      | None -> Unix.ADDR_UNIX unix_path
    in
    let ic, oc =
      try Unix.open_connection addr with
      | Unix.Unix_error (e, _, _) ->
          Printf.eprintf "cannot connect: %s\n" (Unix.error_message e);
          exit 2
    in
    let send line =
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    (* Every response ends with a lone "." line. *)
    let print_response () =
      let rec go () =
        match input_line ic with
        | "." -> ()
        | line ->
            print_endline line;
            go ()
        | exception End_of_file ->
            prerr_endline "server closed the connection";
            exit 1
      in
      go ()
    in
    (match load with
    | None -> ()
    | Some file ->
        send (Printf.sprintf "LOAD %s" session);
        In_channel.with_open_text file (fun fic ->
            try
              while true do
                send (input_line fic)
              done
            with End_of_file -> ());
        send ".";
        print_response ());
    let one line =
      send line;
      (* LOAD from the terminal: forward document lines up to ".". *)
      if
        String.length (String.trim line) >= 4
        && String.uppercase_ascii (String.sub (String.trim line) 0 4) = "LOAD"
      then (
        try
          let rec payload () =
            let l = input_line stdin in
            send l;
            if String.trim l <> "." then payload ()
          in
          payload ()
        with End_of_file -> send ".");
      print_response ()
    in
    if cmds <> [] then List.iter one cmds
    else (
      try
        while true do
          one (input_line stdin)
        done
      with End_of_file -> ());
    (try
       send "QUIT";
       print_response ()
     with Sys_error _ -> ());
    close_out_noerr oc
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running cqa_server: send protocol commands from -e or \
          stdin, print responses.")
    Term.(const run $ unix_arg $ port_arg $ load_arg $ session_arg $ exec_arg)

let main =
  Cmd.group
    (Cmd.info "cqa" ~version:"1.0.0"
       ~doc:"Database repairs and consistent query answering.")
    [
      check_cmd; repairs_cmd; answers_cmd; analyze_cmd; degree_cmd; causes_cmd;
      count_cmd; attr_repairs_cmd; aggregate_cmd; clean_cmd; sample_cmd;
      approx_cmd; export_cmd; program_cmd; client_cmd; report_cmd;
    ]

let () = exit (Cmd.eval main)
