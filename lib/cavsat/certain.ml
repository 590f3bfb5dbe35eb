module Instance = Relational.Instance
module Ic = Constraints.Ic
module Dpll = Sat.Dpll

let c_queries = Obs.Counter.make "cavsat.queries"
let c_candidates = Obs.Counter.make "cavsat.candidates"
let c_certain = Obs.Counter.make "cavsat.certain"
let c_clean_witness = Obs.Counter.make "cavsat.clean_witness"
let c_sat_calls = Obs.Counter.make "cavsat.sat_calls"
let c_witness_clauses = Obs.Counter.make "cavsat.witness_clauses"

(* The largest formula any candidate of the current query was solved
   against (base theory plus that candidate's clauses); reported on the
   span, since rollback returns the solver to the base size. *)
type peak = { mutable vars : int; mutable clauses : int }

(* Does witness [i] have a member in some conflict?  One without
   survives in every repair. *)
let touched theory (w : Witness.t) i =
  let j = ref (Witness.start w i) and stop = Witness.stop w i in
  while !j < stop && Theory.var_of_tid theory w.tids.(!j) = 0 do
    incr j
  done;
  !j < stop

(* The clause "s → some conflicting member of witness [i] is deleted",
   [| -s; -v1; … |] with the members ascending by tid, gathered in
   [buf] (a slot per body atom and one for s) with one lookup per
   member.  The usual short clauses are allocated inline: [Array.sub]
   is a C call. *)
let witness_clause theory (w : Witness.t) i s buf =
  buf.(0) <- -s;
  let n = ref 1 in
  for j = Witness.start w i to Witness.stop w i - 1 do
    let v = Theory.var_of_tid theory w.tids.(j) in
    if v <> 0 then begin
      buf.(!n) <- -v;
      incr n
    end
  done;
  match !n with
  | 2 -> [| buf.(0); buf.(1) |]
  | 3 -> [| buf.(0); buf.(1); buf.(2) |]
  | n -> Array.sub buf 0 n

(* Is candidate [c] a certain answer?  Holding the theory lock: mark the
   solver, allocate a selector s, assert per witness "s → some
   conflicting member of the witness is deleted", and solve under
   assumption s.  A model is an S-repair killing every witness, so SAT
   refutes certainty; UNSAT proves every repair keeps a witness, i.e.
   the answer is certain.  Either way the solver is rolled back to the
   mark (on the exception path too), so every solve sees the base
   theory plus exactly one candidate and the cached theory never
   grows. *)
let candidate_certain (theory : Theory.t) peak w buf (c : Witness.candidate) =
  let i = ref c.first in
  while !i < c.last && touched theory w !i do
    incr i
  done;
  if !i < c.last then begin
    (* A witness no constraint touches survives in every repair. *)
    Obs.Counter.incr c_clean_witness;
    true
  end
  else begin
    let solver = theory.Theory.solver in
    let m = Dpll.mark solver in
    Fun.protect ~finally:(fun () -> Dpll.rollback solver m) @@ fun () ->
    let s = Dpll.fresh_var solver in
    for i = c.first to c.last - 1 do
      Obs.Counter.incr c_witness_clauses;
      Dpll.add_clause solver (witness_clause theory w i s buf)
    done;
    peak.vars <- max peak.vars (Dpll.nvars solver);
    peak.clauses <- max peak.clauses (Dpll.nclauses solver);
    Obs.Counter.incr c_sat_calls;
    Dpll.solve ~assumptions:[ s ] solver = None
  end

(* Lock [theory] for [inst].  A theory found in the memo may be patched
   to a later instance by another engine's read before this one takes
   its lock; then the lookup is made again. *)
let rec lock_for ?delta theory inst schema ics =
  Mutex.lock theory.Theory.lock;
  if Theory.encodes theory inst then theory
  else begin
    Mutex.unlock theory.Theory.lock;
    lock_for ?delta (Theory.cached ?delta inst schema ics) inst schema ics
  end

let consistent_answers ?delta inst schema ics q =
  List.iter
    (fun ic ->
      if not (Ic.is_denial_class ic) then
        invalid_arg
          (Printf.sprintf
             "Cavsat.Certain.consistent_answers: %s is not a denial-class \
              constraint (SAT compilation repairs by deletion only)"
             (Ic.name ic)))
    ics;
  let sp = Obs.Trace.start_phase "cavsat.certain_answers" in
  Obs.Counter.incr c_queries;
  match
    let theory = Theory.cached ?delta inst schema ics in
    if theory.Theory.no_repairs then []
    else begin
      let w, candidates = Witness.answers_with_witnesses q inst in
      let buf = Array.make (List.length q.Logic.Cq.body + 1) 0 in
      Obs.Counter.add c_candidates (List.length candidates);
      let theory = lock_for ?delta theory inst schema ics in
      let peak =
        {
          vars = theory.Theory.base.Theory.vars;
          clauses = theory.Theory.base.Theory.clauses;
        }
      in
      let certain =
        match
          List.filter
            (fun c ->
              Obs.Progress.tick ();
              candidate_certain theory peak w buf c)
            candidates
        with
        | rows -> rows
        | exception e ->
            Mutex.unlock theory.Theory.lock;
            raise e
      in
      Mutex.unlock theory.Theory.lock;
      Obs.Counter.add c_certain (List.length certain);
      if Obs.Trace.is_enabled () then begin
        Obs.Trace.attr_int "vars" peak.vars;
        Obs.Trace.attr_int "clauses" peak.clauses;
        Obs.Trace.attr_int "conflict_edges" theory.Theory.base.Theory.conflict_edges;
        Obs.Trace.attr_int "candidates" (List.length candidates);
        Obs.Trace.attr_int "certain" (List.length certain)
      end;
      List.map (fun (c : Witness.candidate) -> c.row) certain
    end
  with
  | rows ->
      Obs.Trace.finish sp;
      rows
  | exception e ->
      Obs.Trace.finish sp;
      raise e
