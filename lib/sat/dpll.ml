type model = bool array

(* Solver counters (repo-wide obs registry): decisions are branch
   attempts, propagations are unit-forced assignments, conflicts are
   falsified clauses met during propagation.  All solver-layer counters
   share the sat.dpll.* prefix so STATS renders them as one group. *)
let c_decisions = Obs.Counter.make "sat.dpll.decisions"
let c_propagations = Obs.Counter.make "sat.dpll.propagations"
let c_conflicts = Obs.Counter.make "sat.dpll.conflicts"
let c_learned = Obs.Counter.make "sat.dpll.learned"
let c_solves = Obs.Counter.make "sat.dpll.solves"

(* A persistent solver.  The clause store and occurrence vectors grow
   in place (capacity doubling), so clauses added once are indexed once
   and every call searches all clauses added so far.  A literal's
   occurrence vector holds the indices of the clauses containing it,
   oldest first, in [occ.(idx).(0 .. occ_len.(idx) - 1)]; readers visit
   it newest first.  A removed clause keeps its slot as [[||]] (no
   clause is ever empty otherwise: the empty clause only sets
   [root_unsat]) and leaves the occurrence vectors.  The assignment,
   trail and weights are blank between calls: every solving call
   blanks them on every exit. *)
type t = {
  mutable clauses : int array array; (* capacity-doubled; [0, nclauses) used *)
  mutable nclauses : int;
  mutable removed : int; (* slots in [0, nclauses) holding [[||]] *)
  mutable occ : int array array; (* literal index -> clause indices *)
  mutable occ_len : int array; (* literal index -> live entries of [occ] *)
  mutable nvars : int;
  mutable assign : int array; (* 0 unknown, 1 true, -1 false *)
  mutable trail : int array; (* assigned variables in order *)
  mutable trail_len : int;
  mutable synced_vars : int; (* assign/trail/weight are sized for this many *)
  mutable weight : float array; (* soft cost of assigning a variable true *)
  mutable cost : float; (* total weight of soft variables currently true *)
  mutable learned : int;
  mutable root_unsat : bool; (* an empty clause was added *)
}

type mark = {
  m_nclauses : int;
  m_nvars : int;
  m_learned : int;
  m_root_unsat : bool;
}

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let create () =
  {
    clauses = Array.make 16 [||];
    nclauses = 0;
    removed = 0;
    occ = Array.make 64 [||];
    occ_len = Array.make 64 0;
    nvars = 0;
    assign = [||];
    trail = [||];
    trail_len = 0;
    synced_vars = -1;
    weight = [||];
    cost = 0.0;
    learned = 0;
    root_unsat = false;
  }

let nvars t = t.nvars
let nclauses t = t.nclauses
let removed_clauses t = t.removed
let learned_clauses t = t.learned

let fresh_var t =
  t.nvars <- t.nvars + 1;
  t.nvars

let reserve t v = if v > t.nvars then t.nvars <- v

let mark t =
  {
    m_nclauses = t.nclauses;
    m_nvars = t.nvars;
    m_learned = t.learned;
    m_root_unsat = t.root_unsat;
  }

(* Clause [ci] was the newest when it was indexed, so once every
   younger clause is gone its entries sit at the ends of its literals'
   occurrence vectors (twice for a repeated literal): popping one is a
   length decrement.  A removed clause has no entries left to pop. *)
let rollback t m =
  if m.m_nclauses > t.nclauses || m.m_nvars > t.nvars then
    invalid_arg "Dpll.rollback: mark is newer than the solver";
  for ci = t.nclauses - 1 downto m.m_nclauses do
    let c = t.clauses.(ci) in
    if Array.length c = 0 then t.removed <- t.removed - 1;
    for i = 0 to Array.length c - 1 do
      let idx = lit_index c.(i) in
      t.occ_len.(idx) <- t.occ_len.(idx) - 1
    done;
    t.clauses.(ci) <- [||]
  done;
  t.nclauses <- m.m_nclauses;
  t.nvars <- m.m_nvars;
  t.learned <- m.m_learned;
  t.root_unsat <- m.m_root_unsat

let ensure_occ t idx =
  if idx >= Array.length t.occ then begin
    let cap = ref (max 64 (Array.length t.occ)) in
    while idx >= !cap do
      cap := !cap * 2
    done;
    let occ = Array.make !cap [||] and occ_len = Array.make !cap 0 in
    Array.blit t.occ 0 occ 0 (Array.length t.occ);
    Array.blit t.occ_len 0 occ_len 0 (Array.length t.occ_len);
    t.occ <- occ;
    t.occ_len <- occ_len
  end

(* Append clause [ci] to literal [idx]'s occurrence vector, doubling
   its capacity when full: a warm solver adds entries without
   allocating. *)
let push_occ t idx ci =
  let n = t.occ_len.(idx) in
  if n = Array.length t.occ.(idx) then begin
    let v = Array.make (max 4 (2 * n)) 0 in
    Array.blit t.occ.(idx) 0 v 0 n;
    t.occ.(idx) <- v
  end;
  t.occ.(idx).(n) <- ci;
  t.occ_len.(idx) <- n + 1

(* The solver keeps [arr] itself as the clause: no copy is made. *)
let add_clause t arr =
  if Array.length arr = 0 then t.root_unsat <- true
  else begin
    for i = 0 to Array.length arr - 1 do
      let l = arr.(i) in
      if l = 0 then invalid_arg "Dpll.add_clause: literal 0";
      reserve t (abs l)
    done;
    if t.nclauses >= Array.length t.clauses then begin
      let clauses = Array.make (2 * Array.length t.clauses) [||] in
      Array.blit t.clauses 0 clauses 0 t.nclauses;
      t.clauses <- clauses
    end;
    let ci = t.nclauses in
    t.clauses.(ci) <- arr;
    t.nclauses <- t.nclauses + 1;
    for i = 0 to Array.length arr - 1 do
      let idx = lit_index arr.(i) in
      ensure_occ t idx;
      push_occ t idx ci
    done
  end

let add_clause_list t lits = add_clause t (Array.of_list lits)

(* Unindex clause [ci] (one occurrence entry per literal, the newest
   first, so a repeated literal drops both of its entries; the younger
   entries shift down in order) and blank its slot.  The slot is never
   reused, so clause indices stay stable. *)
let remove_clause t ci =
  if ci < 0 || ci >= t.nclauses then
    invalid_arg "Dpll.remove_clause: no such clause";
  if t.learned > 0 then
    invalid_arg "Dpll.remove_clause: the solver holds learned clauses";
  let c = t.clauses.(ci) in
  if Array.length c > 0 then begin
    for i = 0 to Array.length c - 1 do
      let idx = lit_index c.(i) in
      let v = t.occ.(idx) and n = t.occ_len.(idx) in
      let j = ref (n - 1) in
      while v.(!j) <> ci do
        decr j
      done;
      Array.blit v (!j + 1) v !j (n - 1 - !j);
      t.occ_len.(idx) <- n - 1
    done;
    t.clauses.(ci) <- [||];
    t.removed <- t.removed + 1
  end

let clauses t =
  let acc = ref [] in
  for ci = t.nclauses - 1 downto 0 do
    let c = t.clauses.(ci) in
    if Array.length c > 0 then acc := Array.to_list c :: !acc
  done;
  !acc

(* Size the assignment structures for the current variable count.  The
   trail is always empty between calls, so growing them is a plain
   reallocation, not a migration. *)
let sync t =
  if t.synced_vars <> t.nvars then begin
    t.assign <- Array.make (t.nvars + 1) 0;
    t.trail <- Array.make (max 1 t.nvars) 0;
    t.weight <- Array.make (t.nvars + 1) 0.0;
    ensure_occ t ((2 * t.nvars) + 1);
    t.synced_vars <- t.nvars
  end

let value st l =
  let v = st.assign.(abs l) in
  if l > 0 then v else -v

(* Assign literal [l] true.  Returns false on conflict (already false). *)
let assign_lit st l =
  match value st l with
  | 1 -> true
  | -1 -> false
  | _ ->
      let v = abs l in
      st.assign.(v) <- (if l > 0 then 1 else -1);
      st.trail.(st.trail_len) <- v;
      st.trail_len <- st.trail_len + 1;
      (* [cost] is a boxed field: only a weighted variable touches it. *)
      if l > 0 && st.weight.(v) <> 0.0 then st.cost <- st.cost +. st.weight.(v);
      true

let undo_to st mark =
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 1;
    let v = st.trail.(st.trail_len) in
    if st.assign.(v) = 1 && st.weight.(v) <> 0.0 then
      st.cost <- st.cost -. st.weight.(v);
    st.assign.(v) <- 0
  done

(* Visit the clauses of literal [idx]'s occurrence vector (those
   containing a literal just made false), newest first: a falsified
   clause is a conflict, a clause with one unassigned literal and none
   true forces it.  Returns false on conflict.  Plain loops, so visiting
   a clause allocates nothing. *)
let propagate_occ st idx =
  let occ = st.occ.(idx) in
  let k = ref (st.occ_len.(idx) - 1) and ok = ref true in
  while !ok && !k >= 0 do
    let c = st.clauses.(occ.(!k)) in
    let n = Array.length c in
    let i = ref 0 and unassigned = ref 0 and unit_lit = ref 0 in
    while !i < n do
      let l = c.(!i) in
      match value st l with
      | 1 -> i := n + 1
      | 0 ->
          incr unassigned;
          unit_lit := l;
          incr i
      | _ -> incr i
    done;
    if !i <= n then begin
      if !unassigned = 0 then begin
        Obs.Counter.incr c_conflicts;
        ok := false
      end
      else if !unassigned = 1 then begin
        if assign_lit st !unit_lit then Obs.Counter.incr c_propagations
        else begin
          Obs.Counter.incr c_conflicts;
          ok := false
        end
      end
    end;
    decr k
  done;
  !ok

(* Unit propagation from trail position [from].  Returns false on conflict. *)
let rec propagate st from =
  if from >= st.trail_len then true
  else
    let v = st.trail.(from) in
    let falsified = if st.assign.(v) = 1 then -v else v in
    propagate_occ st (lit_index falsified) && propagate st (from + 1)

let assume st l =
  let mark = st.trail_len in
  if assign_lit st l && propagate st mark then true
  else begin
    undo_to st mark;
    false
  end

(* Pick an unassigned variable from the shortest unsatisfied clause, falling
   back to any free variable once every clause is satisfied (so that leaves
   of the search are complete assignments).  A removed clause's empty slot
   has no unassigned literal, so the scan passes over it. *)
let pick_branch st =
  let best = ref 0 and best_len = ref max_int in
  let ci = ref 0 in
  while !ci < st.nclauses do
    let c = st.clauses.(!ci) in
    let n = Array.length c in
    let i = ref 0 and unassigned = ref 0 and cand = ref 0 in
    while !i < n do
      let l = c.(!i) in
      match value st l with
      | 1 -> i := n + 1
      | 0 ->
          incr unassigned;
          if !cand = 0 then cand := abs l;
          incr i
      | _ -> incr i
    done;
    if !i = n && !unassigned > 0 && !unassigned < !best_len then begin
      best := !cand;
      best_len := !unassigned
    end;
    ci := if !best_len <= 2 then st.nclauses else !ci + 1
  done;
  if !best <> 0 then !best
  else begin
    let v = ref 1 and n = Array.length st.assign in
    while !v < n && st.assign.(!v) <> 0 do
      incr v
    done;
    if !v < n then !v else 0
  end

exception Stop

(* DFS over complete assignments.  Every leaf reached is a model (unit
   propagation and branching never cross a falsified clause unnoticed
   because [pick_branch] only reports 0 when all clauses are satisfied
   and all variables assigned).  [bound] prunes branches whose soft cost
   already reaches it; [on_model] reads the model off the assignment
   and may raise [Stop]. *)
let rec search st ~bound ~on_model =
  if st.cost < !bound then begin
    let v = pick_branch st in
    if v = 0 then on_model st
    else begin
      (* False first: drives minimization toward cheap models first. *)
      branch st ~bound ~on_model (-v);
      branch st ~bound ~on_model v
    end
  end

and branch st ~bound ~on_model l =
  Obs.Counter.incr c_decisions;
  Obs.Progress.tick ();
  let mark = st.trail_len in
  if assign_lit st l && propagate st mark then search st ~bound ~on_model;
  undo_to st mark

let model st = Array.map (fun a -> a = 1) st.assign

(* Run [search] over the clauses added so far from the blank
   assignment, under the assumption literals [assumptions.(0 .. n-1)]
   and with the [soft] weights in force.  The assignment, the weights
   and the cost are blanked again on every exit — a model, [Stop], or a
   deadline ([Obs.Progress]) raised mid-search — so the next call
   starts clean. *)
let run ?(soft = []) t ~assumptions ~n ~bound ~on_model =
  if not t.root_unsat then begin
    for i = 0 to n - 1 do
      reserve t (abs assumptions.(i))
    done;
    sync t;
    let in_range v = v >= 1 && v <= t.nvars in
    List.iter (fun (v, w) -> if in_range v then t.weight.(v) <- w) soft;
    Fun.protect ~finally:(fun () ->
        undo_to t 0;
        List.iter (fun (v, _) -> if in_range v then t.weight.(v) <- 0.0) soft;
        t.cost <- 0.0)
    @@ fun () ->
    let i = ref 0 in
    while !i < n && assume t assumptions.(!i) do
      incr i
    done;
    if !i = n then try search t ~bound ~on_model with Stop -> ()
  end

let run_list ?soft t ~assumptions ~bound ~on_model =
  let assumptions = Array.of_list assumptions in
  run ?soft t ~assumptions ~n:(Array.length assumptions) ~bound ~on_model

let solve ?(assumptions = []) t =
  Obs.Trace.with_span "sat.dpll.solve" @@ fun () ->
  Obs.Counter.incr c_solves;
  Obs.Progress.tick ();
  let found = ref None in
  run_list t ~assumptions ~bound:(ref infinity) ~on_model:(fun st ->
      found := Some (model st);
      raise Stop);
  let unsat = Option.is_none !found in
  if unsat && assumptions <> [] && not t.root_unsat then begin
    (* UNSAT under assumptions: the formula implies the clause of their
       negations.  Keep it, so the refutation is never re-derived. *)
    add_clause_list t (List.map (fun l -> -l) assumptions);
    t.learned <- t.learned + 1;
    Obs.Counter.incr c_learned
  end;
  if Obs.Trace.is_enabled () then
    Obs.Trace.attr "sat" (if unsat then "unsat" else "sat");
  !found

(* [solve]'s search and counters, with no model built and no
   refutation kept: the caller rolls its clauses back anyway, and a
   kept refutation would only be rolled back with them. *)
let probe t assumptions n =
  let sp = Obs.Trace.start "sat.dpll.solve" in
  Obs.Counter.incr c_solves;
  Obs.Progress.tick ();
  let sat = ref false in
  match
    run t ~assumptions ~n ~bound:(ref infinity) ~on_model:(fun _ ->
        sat := true;
        raise Stop)
  with
  | () ->
      if Obs.Trace.is_enabled () then
        Obs.Trace.attr "sat" (if !sat then "sat" else "unsat");
      Obs.Trace.finish sp;
      !sat
  | exception e ->
      Obs.Trace.finish sp;
      raise e

let satisfiable ?assumptions t = solve ?assumptions t <> None

let enumerate ?(assumptions = []) ?limit ?project t =
  let sp = Obs.Trace.start_phase "sat.enumerate" in
  Fun.protect ~finally:(fun () -> Obs.Trace.finish sp) @@ fun () ->
  let seen = Hashtbl.create 64 in
  let models = ref [] and count = ref 0 in
  let key m =
    match project with
    | None -> Array.to_list m
    | Some vs -> List.map (fun v -> m.(v)) vs
  in
  run_list t ~assumptions ~bound:(ref infinity) ~on_model:(fun st ->
      let m = model st in
      let k = key m in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        models := m :: !models;
        incr count;
        match limit with
        | Some l when !count >= l -> raise Stop
        | _ -> ()
      end);
  if Obs.Trace.is_enabled () then Obs.Trace.attr_int "models" !count;
  List.rev !models

let count ?assumptions ?project t =
  List.length (enumerate ?assumptions ?project t)

let minimize_weighted ?(assumptions = []) ~soft t =
  let sp = Obs.Trace.start_phase "sat.minimize" in
  Fun.protect ~finally:(fun () -> Obs.Trace.finish sp) @@ fun () ->
  let best = ref None in
  let bound = ref infinity in
  run_list ~soft t ~assumptions ~bound ~on_model:(fun t ->
      if t.cost < !bound then begin
        bound := t.cost;
        best := Some (t.cost, model t);
        Obs.Progress.bound (int_of_float (Float.round t.cost));
        if t.cost <= 0.0 then raise Stop
      end);
  !best

let minimize ?assumptions ~soft t =
  match
    minimize_weighted ?assumptions ~soft:(List.map (fun v -> (v, 1.0)) soft) t
  with
  | None -> None
  | Some (cost, m) -> Some (int_of_float (Float.round cost), m)

let model_true_vars m =
  let acc = ref [] in
  for v = Array.length m - 1 downto 1 do
    if m.(v) then acc := v :: !acc
  done;
  !acc
