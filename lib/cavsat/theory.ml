module Tid = Relational.Tid
module Instance = Relational.Instance
module Conflict_graph = Constraints.Conflict_graph

let c_builds = Obs.Counter.make "cavsat.theory_builds"
let c_cache_hits = Obs.Counter.make "cavsat.theory_cache_hits"
let c_vars = Obs.Counter.make "cavsat.vars"
let c_clauses = Obs.Counter.make "cavsat.clauses"

type stats = { vars : int; clauses : int; conflict_edges : int }

type t = {
  solver : Sat.Dpll.Incremental.t;
  var_of_tid : (int, int) Hashtbl.t;
  no_repairs : bool;
  base : stats;
  lock : Mutex.t;
}

let var_for t tid = Hashtbl.find_opt t.var_of_tid (Tid.to_int tid)

(* The repair theory of one (instance, denial-class constraints) pair —
   the instance-level half of the CAvSAT encoding (Dixit–Kolaitis).  One
   Boolean variable x_t per *conflicting* tuple means "t is kept";
   tuples outside every conflict are kept by all S-repairs and get no
   variable.  The models of the theory are exactly the maximal
   independent sets of the conflict hypergraph, i.e. the S-repairs:

   - independence: per edge {t1..tk} the clause ¬x_t1 ∨ ... ∨ ¬x_tk;
   - maximality: per tuple t, x_t ∨ ⋁_{edges e ∋ t} aux_{e,t}, where
     aux_{e,t} implies every other member of e is kept (for the common
     binary edge the aux literal is just the other tuple's variable, so
     a key group of two yields the familiar at-least-one clause).

   A singleton edge {t} is a self-violation: unit ¬x_t, and t's
   maximality clause is vacuous.  An *empty* edge is a constraint
   violated by the empty binding — no subset repairs it, the instance
   has no S-repairs at all; [no_repairs] records that so the query layer
   can reproduce repair enumeration's "no repairs, no answers". *)
let build inst schema ics =
  Obs.Counter.incr c_builds;
  let graph = Conflict_graph.build_cached inst schema ics in
  let conflicting = Conflict_graph.conflicting_tids graph in
  let no_repairs = List.exists Tid.Set.is_empty graph.Conflict_graph.edges in
  let solver = Sat.Dpll.Incremental.create () in
  let var_of_tid = Hashtbl.create 64 in
  Tid.Set.iter
    (fun tid ->
      Hashtbl.replace var_of_tid (Tid.to_int tid)
        (Sat.Dpll.Incremental.fresh_var solver))
    conflicting;
  let var tid = Hashtbl.find var_of_tid (Tid.to_int tid) in
  let edges_of = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Tid.Set.iter
        (fun tid ->
          let k = Tid.to_int tid in
          Hashtbl.replace edges_of k
            (e :: Option.value ~default:[] (Hashtbl.find_opt edges_of k)))
        e)
    graph.Conflict_graph.edges;
  if not no_repairs then begin
    (* Independence clauses. *)
    List.iter
      (fun e ->
        Sat.Dpll.Incremental.add_clause solver
          (List.map (fun tid -> -var tid) (Tid.Set.elements e)))
      graph.Conflict_graph.edges;
    (* Maximality clauses, deduplicated by literal set: the two tuples
       of a binary edge would otherwise each emit the same at-least-one
       clause. *)
    let seen_max = Hashtbl.create 64 in
    Tid.Set.iter
      (fun tid ->
        let edges = Option.value ~default:[] (Hashtbl.find_opt edges_of (Tid.to_int tid)) in
        if not (List.exists (fun e -> Tid.Set.cardinal e = 1) edges) then begin
          let binary, wide =
            List.partition (fun e -> Tid.Set.cardinal e = 2) edges
          in
          let direct =
            List.map (fun e -> var (Tid.Set.min_elt (Tid.Set.remove tid e))) binary
          in
          let clause_key =
            List.sort_uniq Int.compare (var tid :: direct)
          in
          if wide <> [] || not (Hashtbl.mem seen_max clause_key) then begin
            Hashtbl.replace seen_max clause_key ();
            let aux_lits =
              List.map
                (fun e ->
                  let aux = Sat.Dpll.Incremental.fresh_var solver in
                  Tid.Set.iter
                    (fun o ->
                      Sat.Dpll.Incremental.add_clause solver [ -aux; var o ])
                    (Tid.Set.remove tid e);
                  aux)
                wide
            in
            Sat.Dpll.Incremental.add_clause solver
              (var tid :: List.sort_uniq Int.compare direct @ aux_lits)
          end
        end)
      conflicting;
    (* Self-violating tuples are in no repair. *)
    List.iter
      (fun e ->
        match Tid.Set.elements e with
        | [ t ] -> Sat.Dpll.Incremental.add_clause solver [ -var t ]
        | _ -> ())
      graph.Conflict_graph.edges
  end;
  let base =
    {
      vars = Sat.Dpll.Incremental.nvars solver;
      clauses = Sat.Dpll.Incremental.nclauses solver;
      conflict_edges = List.length graph.Conflict_graph.edges;
    }
  in
  Obs.Counter.add c_vars base.vars;
  Obs.Counter.add c_clauses base.clauses;
  {
    solver;
    var_of_tid;
    no_repairs;
    base;
    lock = Mutex.create ();
  }

(* ------------------------------------------------------------------ *)
(* Cached builds, mirroring Constraints.Conflict_graph.build_cached:
   keyed by (instance digest, {!Conflict_graph.fingerprint}), verified against
   the cached instance before reuse.  Sharing the cached theory across
   the candidates of one query — and across queries on the same
   instance — is what makes the per-candidate work incremental: the
   conflict clauses are indexed once, and each candidate only adds (and
   then rolls back) its own selector clauses. *)

let cache_capacity = 8
let cache : (int * string * Instance.t * t) list ref = ref []
let cache_lock = Mutex.create ()

let cached inst schema ics =
  let key = Instance.digest inst in
  let fp = Conflict_graph.fingerprint ics in
  let hit =
    Mutex.lock cache_lock;
    let found =
      List.find_opt
        (fun (k, f, cached_inst, _) ->
          k = key && String.equal f fp
          && (cached_inst == inst || Instance.equal_with_tids cached_inst inst))
        !cache
    in
    Mutex.unlock cache_lock;
    found
  in
  match hit with
  | Some (_, _, _, t) ->
      Obs.Counter.incr c_cache_hits;
      t
  | None ->
      let t = build inst schema ics in
      Mutex.lock cache_lock;
      cache :=
        (key, fp, inst, t)
        :: (if List.length !cache >= cache_capacity then
              List.filteri (fun i _ -> i < cache_capacity - 1) !cache
            else !cache);
      Mutex.unlock cache_lock;
      t
