module Instance = Relational.Instance
module Ic = Constraints.Ic
module Dpll = Sat.Dpll

let c_queries = Obs.Counter.make "cavsat.queries"
let c_candidates = Obs.Counter.make "cavsat.candidates"
let c_certain = Obs.Counter.make "cavsat.certain"
let c_clean_witness = Obs.Counter.make "cavsat.clean_witness"
let c_sat_calls = Obs.Counter.make "cavsat.sat_calls"
let c_witness_clauses = Obs.Counter.make "cavsat.witness_clauses"
let c_witness_units = Obs.Counter.make "cavsat.witness_units"

(* A read's scratch, reused by all its candidates: [members] holds one
   witness's negated member variables (a slot per body atom), [units]
   a candidate's unit assumptions (a slot per witness of the largest
   candidate), and [peak_clauses] the largest formula any candidate was
   solved against, reported on the span since rollback returns the
   solver to the base size. *)
type scratch = {
  members : int array;
  units : int array;
  mutable peak_clauses : int;
}

(* Gather [-v] for each conflicting member [v] of witness [i] into
   [members], ascending by tid, with one lookup per member; returns how
   many there are. *)
let conflicting_members theory (w : Witness.t) i members =
  let n = ref 0 in
  for j = Witness.start w i to Witness.stop w i - 1 do
    let v = Theory.var_of_tid theory w.tids.(j) in
    if v <> 0 then begin
      members.(!n) <- -v;
      incr n
    end
  done;
  !n

(* The clause "some conflicting member of the witness is deleted" over
   the [n >= 2] gathered literals.  The usual short clauses are
   allocated inline: [Array.sub] is a C call. *)
let witness_clause members n =
  match n with
  | 2 -> [| members.(0); members.(1) |]
  | 3 -> [| members.(0); members.(1); members.(2) |]
  | n -> Array.sub members 0 n

(* Is candidate [c] a certain answer?  Holding the theory lock, one pass
   over its witnesses sorts each by its conflicting members: none, and
   the witness survives in every repair, so the candidate is certain
   with no SAT call; exactly one, [v], and every repair killing the
   witness deletes [v], the assumption [-v]; two or more, and the
   clause [-v1 ∨ -v2 ∨ …] joins the solver.  A model under the
   assumptions is an S-repair killing every witness, so SAT refutes
   certainty; UNSAT proves every repair keeps a witness.  The clauses
   are rolled back after the probe (on the exception path too), and the
   probe learns nothing, so every solve sees the base theory plus
   exactly one candidate and the cached theory never grows. *)
let probe_candidate (theory : Theory.t) sc w (c : Witness.candidate) =
  let solver = theory.Theory.solver in
  let m = Dpll.mark solver and base = Dpll.nclauses solver in
  match
    let units = ref 0 and clean = ref false and i = ref c.first in
    while (not !clean) && !i < c.last do
      (match conflicting_members theory w !i sc.members with
      | 0 -> clean := true
      | 1 ->
          sc.units.(!units) <- sc.members.(0);
          incr units
      | n -> Dpll.add_clause solver (witness_clause sc.members n));
      incr i
    done;
    if !clean then begin
      Obs.Counter.incr c_clean_witness;
      true
    end
    else begin
      let clauses = Dpll.nclauses solver in
      Obs.Counter.add c_witness_units !units;
      Obs.Counter.add c_witness_clauses (clauses - base);
      sc.peak_clauses <- max sc.peak_clauses clauses;
      Obs.Counter.incr c_sat_calls;
      not (Dpll.probe solver sc.units !units)
    end
  with
  | certain ->
      Dpll.rollback solver m;
      certain
  | exception e ->
      Dpll.rollback solver m;
      raise e

let candidate_certain theory (w : Witness.t) (c : Witness.candidate) =
  let width = ref 0 in
  for i = c.first to c.last - 1 do
    width := max !width (Witness.stop w i - Witness.start w i)
  done;
  probe_candidate theory
    {
      members = Array.make !width 0;
      units = Array.make (c.last - c.first) 0;
      peak_clauses = 0;
    }
    w c

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

let consistent_answers ?delta inst schema ics (u : Logic.Ucq.t) =
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
      let w, candidates = Witness.of_ucq u inst in
      let widest =
        List.fold_left
          (fun n (c : Witness.candidate) -> max n (c.last - c.first))
          0 candidates
      in
      Obs.Counter.add c_candidates (List.length candidates);
      let theory = lock_for ?delta theory inst schema ics in
      let sc =
        {
          members =
            Array.make
              (List.fold_left
                 (fun n (q : Logic.Cq.t) -> max n (List.length q.body))
                 0 u.disjuncts)
              0;
          units = Array.make widest 0;
          peak_clauses = theory.Theory.base.Theory.clauses;
        }
      in
      let certain =
        match
          List.filter
            (fun c ->
              Obs.Progress.tick ();
              probe_candidate theory sc w c)
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
        Obs.Trace.attr_int "vars" theory.Theory.base.Theory.vars;
        Obs.Trace.attr_int "clauses" sc.peak_clauses;
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
