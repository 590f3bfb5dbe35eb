(** Whole-document static analysis — the driver behind [cqa analyze] and
    the server's [ANALYZE] command.

    Runs every analyzer over a parsed document without evaluating
    anything: constraint-set conformance and structure
    ({!Analysis.Ic_analysis}), lints of the compiled ASP repair program
    ({!Analysis.Lint}), and the complexity classifier with the
    [method=auto] route for every named query ({!Analysis.Classify},
    {!Engine.plan_ucq}).  All output is deterministically ordered: findings
    are sorted, queries are reported in name order. *)

type query_report = {
  name : string;
  classification : Analysis.Classify.t;
  route : Engine.route;
  findings : Analysis.Finding.t list;
}

type t = {
  constraint_findings : Analysis.Finding.t list;
  program_findings : Analysis.Finding.t list;
      (** Lints of the compiled repair program; empty when the constraint
          set is outside the denial class (nothing to compile). *)
  program_rules : int;  (** Rule count of the compiled repair program. *)
  queries : query_report list;  (** Sorted by query name. *)
}

val document : Parse.document -> t

val has_errors : t -> bool
(** Any error-severity finding anywhere — the CI lint gate. *)

val lines : t -> string list
(** The full report, one line each, deterministic. *)

val query_lines : Parse.document -> string -> string list
(** The classification, witness and auto-route lines for one named query
    — the ["-- analysis"] section of the server's EXPLAIN output.
    Raises [Not_found] for an unknown name. *)
