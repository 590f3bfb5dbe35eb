type model = bool array

(* Solver counters (repo-wide obs registry): decisions are branch
   attempts, propagations are unit-forced assignments, conflicts are
   falsified clauses met during propagation.  All solver-layer counters
   share the sat.dpll.* prefix so STATS renders them as one group. *)
let c_decisions = Obs.Counter.make "sat.dpll.decisions"
let c_propagations = Obs.Counter.make "sat.dpll.propagations"
let c_conflicts = Obs.Counter.make "sat.dpll.conflicts"
let c_learned = Obs.Counter.make "sat.dpll.learned"
let c_inc_solves = Obs.Counter.make "sat.dpll.incremental_solves"

type state = {
  clauses : int array array;
  nclauses : int;
  occ : int list array; (* literal index -> clause indices *)
  assign : int array; (* 0 unknown, 1 true, -1 false *)
  trail : int array; (* assigned variables in order *)
  mutable trail_len : int;
  weight : float array; (* soft cost of assigning a variable true *)
  mutable cost : float; (* total weight of soft variables currently true *)
}

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let make_state cnf ~soft =
  let nv = Cnf.nvars cnf in
  let clauses = Array.of_list (List.rev (Cnf.clauses cnf)) in
  let occ = Array.make ((2 * nv) + 2) [] in
  Array.iteri
    (fun i c -> Array.iter (fun l -> occ.(lit_index l) <- i :: occ.(lit_index l)) c)
    clauses;
  let weight = Array.make (nv + 1) 0.0 in
  List.iter (fun (v, w) -> if v >= 1 && v <= nv then weight.(v) <- w) soft;
  {
    clauses;
    nclauses = Array.length clauses;
    occ;
    assign = Array.make (nv + 1) 0;
    trail = Array.make (max 1 nv) 0;
    trail_len = 0;
    weight;
    cost = 0.0;
  }

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
      if l > 0 then st.cost <- st.cost +. st.weight.(v);
      true

let undo_to st mark =
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 1;
    let v = st.trail.(st.trail_len) in
    if st.assign.(v) = 1 then st.cost <- st.cost -. st.weight.(v);
    st.assign.(v) <- 0
  done

(* Unit propagation from trail position [from].  Returns false on conflict. *)
let propagate st from =
  let qhead = ref from in
  let ok = ref true in
  while !ok && !qhead < st.trail_len do
    let v = st.trail.(!qhead) in
    incr qhead;
    let falsified = if st.assign.(v) = 1 then -v else v in
    let check ci =
      if !ok then begin
        let c = st.clauses.(ci) in
        let sat = ref false and unassigned = ref 0 and unit_lit = ref 0 in
        Array.iter
          (fun l ->
            match value st l with
            | 1 -> sat := true
            | 0 ->
                incr unassigned;
                unit_lit := l
            | _ -> ())
          c;
        if not !sat then
          if !unassigned = 0 then begin
            Obs.Counter.incr c_conflicts;
            ok := false
          end
          else if !unassigned = 1 then
            if assign_lit st !unit_lit then
              Obs.Counter.incr c_propagations
            else begin
              Obs.Counter.incr c_conflicts;
              ok := false
            end
      end
    in
    List.iter check st.occ.(lit_index falsified)
  done;
  !ok

let assume st l =
  let mark = st.trail_len in
  if assign_lit st l && propagate st mark then true
  else begin
    undo_to st mark;
    false
  end

(* Pick an unassigned variable from the shortest unsatisfied clause, falling
   back to any free variable once every clause is satisfied (so that leaves
   of the search are complete assignments). *)
let pick_branch st =
  let best = ref 0 and best_len = ref max_int in
  (try
     for ci = 0 to st.nclauses - 1 do
       let c = st.clauses.(ci) in
       let sat = ref false and unassigned = ref 0 and cand = ref 0 in
       Array.iter
         (fun l ->
           match value st l with
           | 1 -> sat := true
           | 0 ->
               incr unassigned;
               if !cand = 0 then cand := abs l
           | _ -> ())
         c;
       if (not !sat) && !unassigned > 0 && !unassigned < !best_len then begin
         best := !cand;
         best_len := !unassigned;
         if !best_len <= 2 then raise Exit
       end
     done
   with Exit -> ());
  if !best <> 0 then Some !best
  else begin
    let free = ref 0 in
    (try
       for v = 1 to Array.length st.assign - 1 do
         if st.assign.(v) = 0 then begin
           free := v;
           raise Exit
         end
       done
     with Exit -> ());
    if !free = 0 then None else Some !free
  end

exception Stop

(* DFS over complete assignments.  Every leaf reached is a model (unit
   propagation and branching never cross a falsified clause unnoticed
   because [pick_branch] only reports [None] when all clauses are satisfied
   and all variables assigned).  [bound] prunes branches whose soft cost
   already reaches it; [on_model] may raise [Stop]. *)
let rec search st ~bound ~on_model =
  if st.cost >= !bound then ()
  else
    match pick_branch st with
    | None ->
        let m = Array.map (fun a -> a = 1) st.assign in
        on_model st m
    | Some v ->
        let try_sign sign =
          Obs.Counter.incr c_decisions;
          Obs.Progress.tick ();
          let mark = st.trail_len in
          let l = if sign then v else -v in
          if assign_lit st l && propagate st mark then
            search st ~bound ~on_model;
          undo_to st mark
        in
        (* False first: drives minimization toward cheap models first. *)
        try_sign false;
        try_sign true

let init cnf ~assumptions ~soft =
  if List.exists (fun c -> Array.length c = 0) (Cnf.clauses cnf) then None
  else
    let st = make_state cnf ~soft in
    if not (List.for_all (fun l -> assume st l) assumptions) then None
    else if propagate st 0 then Some st
    else None

let solve ?(assumptions = []) cnf =
  let sp = Obs.Trace.start "sat.solve" in
  Obs.Progress.phase "sat.solve";
  let result =
    match init cnf ~assumptions ~soft:[] with
    | None -> None
    | Some st ->
        let result = ref None in
        (try
           search st ~bound:(ref infinity) ~on_model:(fun _ m ->
               result := Some m;
               raise Stop)
         with Stop -> ());
        !result
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.attr "sat" (if result = None then "unsat" else "sat");
  Obs.Trace.finish sp;
  result

let satisfiable ?assumptions cnf = solve ?assumptions cnf <> None

let enumerate_inner ~assumptions ?limit ?project cnf =
  match init cnf ~assumptions ~soft:[] with
  | None -> []
  | Some st ->
      let seen = Hashtbl.create 64 in
      let models = ref [] and count = ref 0 in
      let key m =
        match project with
        | None -> Array.to_list m
        | Some vs -> List.map (fun v -> m.(v)) vs
      in
      (try
         search st ~bound:(ref infinity) ~on_model:(fun _ m ->
             let k = key m in
             if not (Hashtbl.mem seen k) then begin
               Hashtbl.add seen k ();
               models := m :: !models;
               incr count;
               match limit with
               | Some l when !count >= l -> raise Stop
               | _ -> ()
             end)
       with Stop -> ());
      List.rev !models

let enumerate ?(assumptions = []) ?limit ?project cnf =
  let sp = Obs.Trace.start "sat.enumerate" in
  Obs.Progress.phase "sat.enumerate";
  match enumerate_inner ~assumptions ?limit ?project cnf with
  | models ->
      if Obs.Trace.is_enabled () then
        Obs.Trace.attr_int "models" (List.length models);
      Obs.Trace.finish sp;
      models
  | exception e ->
      Obs.Trace.finish sp;
      raise e

let count ?assumptions ?project cnf =
  List.length (enumerate ?assumptions ?project cnf)

let minimize_weighted ?(assumptions = []) ~soft cnf =
  let sp = Obs.Trace.start "sat.minimize" in
  Obs.Progress.phase "sat.minimize";
  let best =
    match init cnf ~assumptions ~soft with
    | None -> None
    | Some st ->
        let best = ref None in
        let bound = ref infinity in
        (try
           search st ~bound ~on_model:(fun st m ->
               if st.cost < !bound then begin
                 bound := st.cost;
                 best := Some (st.cost, m);
                 Obs.Progress.bound (int_of_float (Float.round st.cost));
                 if st.cost <= 0.0 then raise Stop
               end)
         with Stop -> ());
        !best
  in
  Obs.Trace.finish sp;
  best

let minimize ?assumptions ~soft cnf =
  match
    minimize_weighted ?assumptions ~soft:(List.map (fun v -> (v, 1.0)) soft)
      cnf
  with
  | None -> None
  | Some (cost, m) -> Some (int_of_float (Float.round cost), m)

let model_true_vars m =
  let acc = ref [] in
  for v = Array.length m - 1 downto 1 do
    if m.(v) then acc := v :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Incremental solving.

   A persistent solver that accepts clauses and variables between calls
   and solves under per-call assumption literals.  The clause store and
   occurrence lists grow in place (capacity doubling), so the formula
   built by earlier calls is never re-indexed; each [solve] only pays
   for what was added since the last one.  When a call is unsatisfiable
   under non-empty assumptions the clause over their negations is
   implied by the formula, so it is retained.  [mark]/[rollback] undo
   everything added after a mark — clauses, variables and learned
   refutations — so a caller that probes many throwaway candidates
   (lib/cavsat) solves each one against the base formula alone. *)

module Incremental = struct
  type solver = {
    mutable clauses : int array array; (* capacity-doubled; [0, n) used *)
    mutable n : int;
    mutable occ : int list array; (* literal index -> clause indices *)
    mutable nvars : int;
    mutable assign : int array;
    mutable trail : int array;
    mutable synced_vars : int; (* assign/trail are sized for this many *)
    mutable zero_weight : float array;
    mutable learned : int;
    mutable root_unsat : bool; (* an empty clause was added *)
  }

  type t = solver
  type mark = {
    m_n : int;
    m_nvars : int;
    m_learned : int;
    m_root_unsat : bool;
  }

  let create () =
    {
      clauses = Array.make 16 [||];
      n = 0;
      occ = Array.make 64 [];
      nvars = 0;
      assign = [||];
      trail = [||];
      synced_vars = -1;
      zero_weight = [||];
      learned = 0;
      root_unsat = false;
    }

  let mark t =
    {
      m_n = t.n;
      m_nvars = t.nvars;
      m_learned = t.learned;
      m_root_unsat = t.root_unsat;
    }

  (* Clause [ci] was the newest when it was indexed, so once every
     younger clause is gone its entries sit at the heads of its
     literals' occurrence lists (twice for a repeated literal). *)
  let rollback t m =
    if m.m_n > t.n || m.m_nvars > t.nvars then
      invalid_arg "Dpll.Incremental.rollback: mark is newer than the solver";
    for ci = t.n - 1 downto m.m_n do
      Array.iter
        (fun l ->
          let idx = lit_index l in
          t.occ.(idx) <- List.tl t.occ.(idx))
        t.clauses.(ci);
      t.clauses.(ci) <- [||]
    done;
    t.n <- m.m_n;
    t.nvars <- m.m_nvars;
    t.learned <- m.m_learned;
    t.root_unsat <- m.m_root_unsat

  let nvars t = t.nvars
  let nclauses t = t.n
  let learned_clauses t = t.learned

  let fresh_var t =
    t.nvars <- t.nvars + 1;
    t.nvars

  let reserve t v = if v > t.nvars then t.nvars <- v

  let ensure_occ t idx =
    if idx >= Array.length t.occ then begin
      let cap = ref (max 64 (Array.length t.occ)) in
      while idx >= !cap do
        cap := !cap * 2
      done;
      let occ = Array.make !cap [] in
      Array.blit t.occ 0 occ 0 (Array.length t.occ);
      t.occ <- occ
    end

  let add_clause t lits =
    match lits with
    | [] -> t.root_unsat <- true
    | _ ->
        let arr = Array.of_list lits in
        Array.iter
          (fun l ->
            if l = 0 then invalid_arg "Dpll.Incremental.add_clause: literal 0";
            reserve t (abs l))
          arr;
        if t.n >= Array.length t.clauses then begin
          let clauses = Array.make (2 * Array.length t.clauses) [||] in
          Array.blit t.clauses 0 clauses 0 t.n;
          t.clauses <- clauses
        end;
        let ci = t.n in
        t.clauses.(ci) <- arr;
        t.n <- t.n + 1;
        Array.iter
          (fun l ->
            let idx = lit_index l in
            ensure_occ t idx;
            t.occ.(idx) <- ci :: t.occ.(idx))
          arr

  (* Size the assignment structures for the current variable count.  The
     trail is always empty between solves, so growing them is a plain
     reallocation, not a migration. *)
  let sync t =
    if t.synced_vars <> t.nvars then begin
      t.assign <- Array.make (t.nvars + 1) 0;
      t.trail <- Array.make (max 1 t.nvars) 0;
      t.zero_weight <- Array.make (t.nvars + 1) 0.0;
      ensure_occ t ((2 * t.nvars) + 1);
      t.synced_vars <- t.nvars
    end

  (* A [state] view over the shared arrays: [search]/[propagate] run
     unchanged on it, and [undo_to 0] afterwards restores the blank
     assignment for the next call. *)
  let view t =
    {
      clauses = t.clauses;
      nclauses = t.n;
      occ = t.occ;
      assign = t.assign;
      trail = t.trail;
      trail_len = 0;
      weight = t.zero_weight;
      cost = 0.0;
    }

  let solve ?(assumptions = []) t =
    let sp = Obs.Trace.start "sat.dpll.solve" in
    Obs.Counter.incr c_inc_solves;
    match
      Obs.Progress.tick ();
      if t.root_unsat then None
      else begin
        List.iter (fun l -> reserve t (abs l)) assumptions;
        sync t;
        let st = view t in
        (* Blank the shared assignment on every exit: a deadline raised
           inside [search] must not leak its partial trail into the
           next call. *)
        let outcome =
          Fun.protect ~finally:(fun () -> undo_to st 0) @@ fun () ->
          if not (List.for_all (fun l -> assume st l) assumptions) then None
          else begin
            let found = ref None in
            (try
               search st ~bound:(ref infinity) ~on_model:(fun _ m ->
                   found := Some m;
                   raise Stop)
             with Stop -> ());
            !found
          end
        in
        (match outcome with
        | None when assumptions <> [] ->
            (* UNSAT under assumptions: the formula implies the clause of
               their negations.  Keep it, so the refutation is never
               re-derived. *)
            add_clause t (List.map (fun l -> -l) assumptions);
            t.learned <- t.learned + 1;
            Obs.Counter.incr c_learned
        | _ -> ());
        outcome
      end
    with
    | result ->
        if Obs.Trace.is_enabled () then
          Obs.Trace.attr "sat" (if result = None then "unsat" else "sat");
        Obs.Trace.finish sp;
        result
    | exception e ->
        Obs.Trace.finish sp;
        raise e

  let satisfiable ?assumptions t = solve ?assumptions t <> None
end
