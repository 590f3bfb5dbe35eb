module Tid = Relational.Tid
module Conflict_graph = Constraints.Conflict_graph

let c_builds = Obs.Counter.make "cavsat.theory_builds"
let c_cache_hits = Obs.Counter.make "cavsat.theory_cache_hits"
let c_vars = Obs.Counter.make "cavsat.vars"
let c_clauses = Obs.Counter.make "cavsat.clauses"

type stats = { vars : int; clauses : int; conflict_edges : int }

type t = {
  solver : Sat.Dpll.t;
  conflicting : int array;
  no_repairs : bool;
  base : stats;
  lock : Mutex.t;
}

(* Variable v belongs to [conflicting.(v - 1)]: a binary search. *)
let var_for t tid =
  let x = Tid.to_int tid and a = t.conflicting in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) lsr 1 in
      let y = a.(mid) in
      if y = x then Some (mid + 1)
      else if y < x then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

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
   can reproduce repair enumeration's "no repairs, no answers".

   Built straight from the sorted edge arrays: conflicting tuples are
   numbered in ascending tid order through a dense tid-indexed scratch
   array, and each tuple's edges are found through CSR offsets (one
   counting pass), listed latest edge first.  The theory keeps only the
   conflicting tids, so what it holds is sized by the conflicts. *)
let of_edges (edge_list : Tid.Sorted.t list) =
  let edges = Array.of_list edge_list in
  let n_edges = Array.length edges in
  let no_repairs = Array.exists (fun e -> Array.length e = 0) edges in
  let solver = Sat.Dpll.create () in
  let max_tid =
    Array.fold_left
      (fun m e ->
        match Array.length e with 0 -> m | k -> max m (Tid.to_int e.(k - 1)))
      (-1) edges
  in
  (* Degrees first, in the slots that then hold the variables. *)
  let var_of_tid = Array.make (max_tid + 1) 0 in
  Array.iter
    (Array.iter (fun t ->
         let t = Tid.to_int t in
         var_of_tid.(t) <- var_of_tid.(t) + 1))
    edges;
  let n_vars =
    Array.fold_left (fun k d -> if d > 0 then k + 1 else k) 0 var_of_tid
  in
  let conflicting = Array.make n_vars 0 in
  (* [start.(v)] .. [start.(v + 1) - 1]: variable v's slice of [slots]. *)
  let start = Array.make (n_vars + 2) 0 in
  for t = 0 to max_tid do
    let d = var_of_tid.(t) in
    if d > 0 then begin
      let v = Sat.Dpll.fresh_var solver in
      var_of_tid.(t) <- v;
      conflicting.(v - 1) <- t;
      start.(v + 1) <- start.(v) + d
    end
  done;
  let var t = var_of_tid.(Tid.to_int t) in
  if not no_repairs then begin
    let slots = Array.make start.(n_vars + 1) 0 in
    let fill = Array.sub start 0 (n_vars + 1) in
    for i = n_edges - 1 downto 0 do
      Array.iter
        (fun t ->
          let v = var t in
          slots.(fill.(v)) <- i;
          fill.(v) <- fill.(v) + 1)
        edges.(i)
    done;
    (* Independence clauses. *)
    Array.iter
      (fun e ->
        Sat.Dpll.add_clause solver
          (Array.fold_right (fun t lits -> -var t :: lits) e []))
      edges;
    (* Maximality clauses.  An aux-free clause that repeats an earlier
       one is skipped: the tuples of a key group would otherwise each
       emit the same at-least-one clause.  Its literals are the tuple's
       closed binary neighbourhood, and two tuples with equal closed
       neighbourhoods are neighbours, so it suffices to compare with the
       neighbours' ([closed], ascending; [[||]] for the tuples not yet
       visited or with aux literals). *)
    let closed = Array.make (n_vars + 1) [||] in
    let rec insert v = function
      | w :: rest when w < v -> w :: insert v rest
      | l -> v :: l
    in
    for v = 1 to n_vars do
      let lo = start.(v) and hi = start.(v + 1) in
      let self_violating = ref false in
      for j = lo to hi - 1 do
        if Array.length edges.(slots.(j)) = 1 then self_violating := true
      done;
      if not !self_violating then begin
        let direct = ref [] and wide = ref [] in
        for j = hi - 1 downto lo do
          let e = edges.(slots.(j)) in
          if Array.length e = 2 then begin
            let a = var e.(0) in
            direct := (if a = v then var e.(1) else a) :: !direct
          end
          else wide := e :: !wide
        done;
        let direct = List.sort Int.compare !direct in
        let fresh =
          match !wide with
          | [] ->
              let key = Array.of_list (insert v direct) in
              let same w =
                let k = closed.(w) in
                Array.length k = Array.length key
                && Array.for_all2 Int.equal k key
              in
              closed.(v) <- key;
              not (List.exists same direct)
          | _ -> true
        in
        if fresh then begin
          let aux_lits =
            List.map
              (fun e ->
                let aux = Sat.Dpll.fresh_var solver in
                Array.iter
                  (fun o ->
                    let w = var o in
                    if w <> v then
                      Sat.Dpll.add_clause solver [ -aux; w ])
                  e;
                aux)
              !wide
          in
          Sat.Dpll.add_clause solver ((v :: direct) @ aux_lits)
        end
      end
    done;
    (* Self-violating tuples are in no repair. *)
    Array.iter
      (function
        | [| t |] -> Sat.Dpll.add_clause solver [ -var t ]
        | _ -> ())
      edges
  end;
  let base =
    {
      vars = Sat.Dpll.nvars solver;
      clauses = Sat.Dpll.nclauses solver;
      conflict_edges = n_edges;
    }
  in
  { solver; conflicting; no_repairs; base; lock = Mutex.create () }

let build inst schema ics =
  Obs.Counter.incr c_builds;
  Obs.Trace.with_span "cavsat.theory_build" @@ fun () ->
  let t = of_edges (Conflict_graph.sorted_edges inst schema ics) in
  Obs.Counter.add c_vars t.base.vars;
  Obs.Counter.add c_clauses t.base.clauses;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.attr_int "edges" t.base.conflict_edges;
    Obs.Trace.attr_int "vars" t.base.vars;
    Obs.Trace.attr_int "clauses" t.base.clauses
  end;
  t

(* Cached builds, in a {!Constraints.Memo} like the conflict graph's.
   Sharing the cached theory across the candidates of one query — and
   across queries on the same instance — is what makes the
   per-candidate work incremental: the conflict clauses are indexed
   once, and each candidate only adds (and then rolls back) its own
   selector clauses. *)

let cache = Constraints.Memo.create ~hits:c_cache_hits ()

let cached inst schema ics =
  Constraints.Memo.find_or_build cache inst ics (fun () ->
      build inst schema ics)
