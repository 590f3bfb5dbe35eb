module Instance = Relational.Instance
module Value = Relational.Value
module Ic = Constraints.Ic

(* Where the writes stand against the last instance whose SAT theory
   may be cached: no SAT read ran on this engine or its ancestors
   ([No_theory]; writes record nothing, so a session that never reads
   through SAT pins no old instance), one ran on this very instance
   ([At_base]), or the net writes since that instance ([Delta]). *)
type state = No_theory | At_base | Delta of Cavsat.Theory.delta
type since = state Atomic.t

type t = {
  instance : Instance.t;
  schema : Relational.Schema.t;
  ics : Ic.t list;
  since : since;  (* A SAT read sets it to [At_base]. *)
}

type answer_method =
  [ `Repair_enumeration
  | `Residue_rewriting
  | `Key_rewriting
  | `Datalog
  | `Asp
  | `Sat
  | `Auto ]

let c_queries = Obs.Counter.make "engine.queries"

let method_label = function
  | `Repair_enumeration -> "repair_enumeration"
  | `Residue_rewriting -> "residue_rewriting"
  | `Key_rewriting -> "key_rewriting"
  | `Datalog -> "key_rewriting"
  | `Asp -> "asp"
  | `Sat -> "sat"
  | `Auto -> "auto"

let create ~schema ~ics instance =
  { instance; schema; ics; since = Atomic.make No_theory }

(* O(fact): one instance write and one step of the net delta; no view,
   edge or clause is touched here.  Tids are never reused, so deleting
   a tuple added since the base just forgets it. *)
let update t op fact =
  let step (d : Cavsat.Theory.delta) tid =
    match op with
    | `Add -> { d with added = Relational.Tid.Set.add tid d.added }
    | `Del when Relational.Tid.Set.mem tid d.added ->
        { d with added = Relational.Tid.Set.remove tid d.added }
    | `Del -> { d with deleted = Relational.Tid.Set.add tid d.deleted }
  in
  let next instance tid =
    let since =
      match Atomic.get t.since with
      | No_theory -> No_theory
      | Delta d -> Delta (step d tid)
      | At_base ->
          Delta
            (step
               {
                 Cavsat.Theory.from = t.instance;
                 added = Relational.Tid.Set.empty;
                 deleted = Relational.Tid.Set.empty;
               }
               tid)
    in
    { t with instance; since = Atomic.make since }
  in
  match op with
  | `Add ->
      let instance, tid = Instance.insert t.instance fact in
      if instance == t.instance then t else next instance tid
  | `Del -> (
      match Instance.tid_of t.instance fact with
      | None -> t
      | Some tid -> next (Instance.delete t.instance tid) tid)

let is_consistent t =
  Constraints.Violation.is_consistent t.instance t.schema t.ics

module Rows = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let s_repairs t = Repairs.S_repair.enumerate t.instance t.schema t.ics
let c_repairs t = Repairs.C_repair.enumerate t.instance t.schema t.ics

let by_repair_enumeration t u =
  match s_repairs t with
  | [] -> []
  | repairs -> (
      (* Query every repair independently (parallel when --jobs allows),
         then intersect. *)
      let answer_sets =
        Par.map
          (fun (r : Repairs.Repair.t) ->
            Obs.Progress.tick ();
            Rows.of_list (Logic.Ucq.answers u r.repaired))
          repairs
      in
      match answer_sets with
      | [] -> []
      | first :: rest ->
          Rows.elements (List.fold_left Rows.inter first rest))

(* --- static planning (method=auto) ----------------------------------- *)

type route = [ `Direct | `Key_rewriting | `Sat_compilation | `Repair_enumeration ]

type plan = {
  route : route;
  classification : Analysis.Classify.t;
  rewriting : Analysis.Attack_graph.rewriting_input option;
}

let route_label = function
  | `Direct -> "direct"
  | `Key_rewriting -> "key_rewriting"
  | `Sat_compilation -> "sat_compilation"
  | `Repair_enumeration -> "repair_enumeration"

let denial_class t = List.for_all Ic.is_denial_class t.ics

(* The theory is looked up with the writes since the base, so the
   base's cached theory is patched rather than rebuilt; after the read
   the memo holds this instance's theory, which becomes the base.
   Without a base (no SAT read before the writes) the read builds
   cold, as on a memo miss. *)
let by_sat t u =
  let delta =
    match Atomic.get t.since with Delta d -> Some d | No_theory | At_base -> None
  in
  Fun.protect ~finally:(fun () -> Atomic.set t.since At_base) @@ fun () ->
  Cavsat.Certain.consistent_answers ?delta t.instance t.schema t.ics u

let plan t q =
  let classification, rewriting =
    Obs.Trace.with_span "engine.classify" (fun () ->
        Analysis.Classify.classify_rewriting t.ics q)
  in
  let route =
    match (classification.Analysis.Classify.verdict, classification.witness) with
    | Analysis.Classify.Fo_rewritable, Analysis.Classify.No_constraints ->
        (* No relevant constraint can delete a tuple the query reads:
           the plain answers are already the certain answers. *)
        `Direct
    | Analysis.Classify.Fo_rewritable, _ ->
        (* Acyclic attack graph: the elimination order as a guarded
           formula on the columnar executor — no repairs are ever
           materialized on this branch. *)
        `Key_rewriting
    | (Analysis.Classify.Conp_hard | Analysis.Classify.Unknown), _
      when denial_class t ->
        (* Everything no rewriting takes: the dichotomy's hard side, weak
           attack cycles, self-joins, non-key denials.  Under
           denial-class constraints certainty is in coNP for every
           conjunctive query and the repairs are the maximal independent
           sets of the conflict graph, so it compiles exactly to
           (incremental) SAT instead of materializing exponentially many
           repairs.  The guard keeps INDs (repaired by insertion) off
           this route. *)
        `Sat_compilation
    | _ -> `Repair_enumeration
  in
  { route; classification; rewriting }

let plan_ucq t (u : Logic.Ucq.t) =
  match u.disjuncts with
  | [ q ] -> plan t q
  | qs ->
      (* No rewriting takes a union (a repair may keep one disjunct's
         witness, another repair the other's), but SAT decides whether
         some repair kills the witnesses of every disjunct. *)
      let route =
        if List.for_all (fun q -> (plan t q).route = `Direct) qs then `Direct
        else if denial_class t then `Sat_compilation
        else `Repair_enumeration
      in
      {
        route;
        classification = Analysis.Classify.classify_ucq t.ics u;
        rewriting = None;
      }

(* The rewriting reads every join as SQL equality, under which a NULL
   matches nothing, and the repairs disagree with it in three ways: a
   NULL-keyed tuple is in every repair yet joins no block; a head
   variable under the rewriting's [∃] prefix never binds NULL, while a
   repair's answer can carry one; and a NULL non-key cell conflicts
   with no block mate, yet the guard quantifies over that tuple as a
   mate and, finding no join for its NULL, refutes the block.  The
   route declines when a relation the query reads holds a NULL. *)
let reads_null t (u : Logic.Ucq.t) =
  List.exists
    (fun (q : Logic.Cq.t) ->
      List.exists
        (fun (a : Logic.Atom.t) ->
          Array.exists Relational.Column.has_nulls
            (Instance.columnar t.instance ~rel:a.rel).Relational.Columnar.columns)
        q.body)
    u.disjuncts

(* The route that actually runs: the planned one, except that a
   rewriting declining at run time (NULLs in the relations the query
   reads) hands over to the exact route for the constraint class — SAT
   under denial-class constraints, enumeration otherwise. *)
let executed_route t u p : route =
  match (p.route, p.rewriting) with
  | `Key_rewriting, Some _ when not (reads_null t u) -> `Key_rewriting
  | `Key_rewriting, _ ->
      if denial_class t then `Sat_compilation else `Repair_enumeration
  | r, _ -> r

let run_route t u p = function
  | `Direct -> Logic.Ucq.answers u t.instance
  | `Repair_enumeration -> by_repair_enumeration t u
  | `Sat_compilation -> by_sat t u
  | `Key_rewriting ->
      Rewriting.Key_rewrite.answers (Option.get p.rewriting) t.instance

(* The branch a non-auto method executes — EXPLAIN, the trace attrs
   and Obs.Progress report it uniformly whether or not planning was
   involved. *)
let method_route : answer_method -> string = function
  | `Repair_enumeration -> "repair_enumeration"
  | `Residue_rewriting -> "residue_rewriting"
  | `Key_rewriting | `Datalog -> "key_rewriting"
  | `Asp -> "asp"
  | `Sat -> route_label `Sat_compilation
  | `Auto -> "auto"

(* Why [m] (or C-repair semantics) has no route for the union [u]: the
   rewritings take single conjunctive queries, and the analyzer names
   the condition the union fails. *)
let refusal ?(semantics = `S) t ~name (u : Logic.Ucq.t) m =
  let why flag =
    Printf.sprintf "method=%s not applicable to %S: %s" flag name
      (Analysis.Classify.ucq_rewriting_diagnostic t.ics u)
  in
  match (u.disjuncts, semantics, m) with
  | [ _ ], _, _ -> None
  | _, `C, _ -> Some "C-repair semantics supports single queries only"
  | _, `S, `Residue_rewriting -> Some (why "rewriting")
  | _, `S, (`Key_rewriting | `Datalog) -> Some (why "key-rewriting")
  | _, `S, (`Auto | `Repair_enumeration | `Asp | `Sat) -> None

(* The one query of [u], for a method that takes single queries only. *)
let single ?semantics t (u : Logic.Ucq.t) m =
  match u.disjuncts with
  | [ q ] -> q
  | _ -> invalid_arg (Option.get (refusal ?semantics t ~name:u.name u m))

let consistent_answers_ucq ?(method_ = `Auto) ?plan:planned t u =
  let sp = Obs.Trace.start_phase "engine.certain_answers" in
  Obs.Counter.incr c_queries;
  if method_ <> `Auto then Obs.Progress.set_branch (method_route method_);
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.attr "method" (method_label method_);
    if method_ <> `Auto then Obs.Trace.attr "route" (method_route method_)
  end;
  match
    match method_ with
    | `Repair_enumeration -> by_repair_enumeration t u
    | `Residue_rewriting ->
        Rewriting.Residue_rewrite.consistent_answers (single t u method_)
          t.schema t.ics t.instance
    | `Asp ->
        Repair_programs.Asp_cqa.consistent_answers_ucq u t.schema t.ics
          t.instance
    | `Sat ->
        (* Exact on every denial-class input, whatever the verdict;
           Cavsat rejects INDs with the precise message. *)
        by_sat t u
    | `Key_rewriting | `Datalog -> (
        let q = single t u method_ in
        match
          match planned with
          | Some p -> (p.classification, p.rewriting)
          | None -> Analysis.Classify.classify_rewriting t.ics q
        with
        | _, Some _ when reads_null t u ->
            invalid_arg
              "Engine.consistent_answers: key rewriting not applicable: a \
               relation the query reads holds a NULL"
        | _, Some ri -> Rewriting.Key_rewrite.answers ri t.instance
        | c, None ->
            invalid_arg
              (Printf.sprintf
                 "Engine.consistent_answers: key rewriting not applicable: %s"
                 (Analysis.Classify.describe c)))
    | `Auto ->
        let p = match planned with Some p -> p | None -> plan_ucq t u in
        let executed = executed_route t u p in
        Obs.Progress.set_branch (route_label executed);
        if Obs.Trace.is_enabled () then begin
          Obs.Trace.attr "route" (route_label p.route);
          Obs.Trace.attr "executed_route" (route_label executed);
          Obs.Trace.attr "verdict"
            (Analysis.Classify.verdict_label
               p.classification.Analysis.Classify.verdict);
          Obs.Trace.attr "witness"
            (Analysis.Classify.witness_code p.classification.witness)
        end;
        run_route t u p executed
  with
  | rows ->
      if Obs.Trace.is_enabled () then
        Obs.Trace.attr_int "answers" (List.length rows);
      Obs.Trace.finish sp;
      rows
  | exception e ->
      Obs.Trace.finish sp;
      raise e

let consistent_answers ?method_ ?plan t q =
  consistent_answers_ucq ?method_ ?plan t (Logic.Ucq.of_cq q)

let c_branch = "asp_c"

let consistent_answers_c t u =
  Obs.Trace.with_span "engine.certain_answers_c" (fun () ->
      Obs.Progress.set_branch c_branch;
      Repair_programs.Asp_cqa.consistent_answers ~semantics:`C
        (single ~semantics:`C t u `Auto)
        t.schema t.ics t.instance)

let inconsistency_degree t = Measures.Degree.repair_based t.instance t.schema t.ics

let causes t q = Causality.Cause.actual_causes t.instance t.schema q

let conflict_graph t =
  Constraints.Conflict_graph.build t.instance t.schema t.ics

let optimal_repair ~weight t =
  Repairs.Optimal.optimal_repair ~weight t.instance t.schema t.ics

let aggregate_range t ~rel agg =
  Repairs.Aggregate.range t.instance t.schema t.ics ~rel agg

let count_s_repairs t = Repairs.Count.s_repairs t.instance t.schema t.ics
let count_c_repairs t = Repairs.Count.c_repairs t.instance t.schema t.ics
