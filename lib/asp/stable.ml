module Fact = Relational.Fact
module Dpll = Sat.Dpll

type model = Fact.Set.t

(* Candidates are classical models enumerated by SAT; each undergoes a
   reduct-minimality check, and the survivors are the stable models. *)
let c_candidates = Obs.Counter.make "asp.candidates"
let c_reduct_checks = Obs.Counter.make "asp.reduct_checks"
let c_stable = Obs.Counter.make "asp.stable_models"

(* Classical clauses of the ground rules: body → head becomes
   ¬pos ∨ neg ∨ head.  In addition, support clauses prune unsupported
   candidates: in every stable model, a true atom must appear in the head
   of some rule whose body holds (otherwise removing the atom still models
   the reduct, contradicting minimality).  One auxiliary variable per rule
   encodes its body truth; without this, the candidate enumeration would
   walk an exponential space of models with freely-true derived atoms. *)
let clauses_of (g : Ground.t) =
  let solver = Dpll.create () in
  Dpll.reserve solver g.natoms;
  let supporting = Hashtbl.create 64 in
  List.iter
    (fun (r : Ground.rule) ->
      Dpll.add_clause_list solver (r.head @ List.map (fun b -> -b) r.pos @ r.neg);
      let body_var = Dpll.fresh_var solver in
      (* body_var ↔ (∧ pos ∧ ¬neg) *)
      List.iter (fun b -> Dpll.add_clause solver [| -body_var; b |]) r.pos;
      List.iter (fun c -> Dpll.add_clause solver [| -body_var; -c |]) r.neg;
      Dpll.add_clause_list solver
        (body_var :: (List.map (fun b -> -b) r.pos @ r.neg));
      List.iter
        (fun h ->
          Hashtbl.replace supporting h
            (body_var :: Option.value ~default:[] (Hashtbl.find_opt supporting h)))
        r.head)
    g.rules;
  for a = 1 to g.natoms do
    let supports = Option.value ~default:[] (Hashtbl.find_opt supporting a) in
    Dpll.add_clause_list solver (-a :: supports)
  done;
  solver

(* Is [m] (as a bool array over atom ids) a minimal model of the reduct
   P^M?  The reduct keeps rules whose negative body is disjoint from M,
   stripped of negation; we ask SAT for a model strictly below M. *)
let is_minimal_model_of_reduct (g : Ground.t) m =
  let solver = Dpll.create () in
  Dpll.reserve solver g.natoms;
  List.iter
    (fun (r : Ground.rule) ->
      if not (List.exists (fun b -> m.(b)) r.neg) then
        Dpll.add_clause_list solver (r.head @ List.map (fun b -> -b) r.pos))
    g.rules;
  let true_atoms = ref [] in
  for v = 1 to g.natoms do
    if m.(v) then true_atoms := v :: !true_atoms
    else Dpll.add_clause solver [| -v |]
  done;
  (* Strictly smaller: some currently-true atom must flip to false. *)
  match !true_atoms with
  | [] -> true
  | ts ->
      Dpll.add_clause_list solver (List.map (fun v -> -v) ts);
      not (Dpll.satisfiable solver)

let model_facts (g : Ground.t) m =
  let acc = ref Fact.Set.empty in
  for v = 1 to g.natoms do
    if m.(v) then acc := Fact.Set.add g.atoms.(v) !acc
  done;
  !acc

let models_ground g =
  let sp = Obs.Trace.start_phase "asp.stable" in
  let solver = clauses_of g in
  let candidates = Dpll.enumerate solver in
  Obs.Counter.add c_candidates (List.length candidates);
  (* Each reduct minimality check is independent (the ground program is
     read-only and the DPLL call inside is per-candidate state), so the
     candidates are checked with the parallel map; order is preserved. *)
  let stable =
    Par.filter_map
      (fun m ->
        Obs.Counter.incr c_reduct_checks;
        Obs.Progress.tick ();
        if is_minimal_model_of_reduct g m then Some (model_facts g m) else None)
      candidates
  in
  Obs.Counter.add c_stable (List.length stable);
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.attr_int "candidates" (List.length candidates);
    Obs.Trace.attr_int "stable" (List.length stable)
  end;
  Obs.Trace.finish sp;
  stable

let models program edb = models_ground (Ground.ground program edb)

let violation_weight (g : Ground.t) model =
  let holds id = Fact.Set.mem g.atoms.(id) model in
  List.fold_left
    (fun acc (w : Ground.weak) ->
      if List.for_all holds w.pos && not (List.exists holds w.neg) then
        acc + w.weight
      else acc)
    0 g.weaks

let optimal_models program edb =
  let g = Ground.ground program edb in
  let stable = models_ground g in
  match stable with
  | [] -> []
  | _ ->
      let weighted = List.map (fun m -> (violation_weight g m, m)) stable in
      let best = List.fold_left (fun acc (w, _) -> min acc w) max_int weighted in
      List.filter (fun (w, _) -> w = best) weighted
