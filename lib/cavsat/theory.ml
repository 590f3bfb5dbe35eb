module Tid = Relational.Tid
module Instance = Relational.Instance
module Conflict_graph = Constraints.Conflict_graph
module Dpll = Sat.Dpll

let c_builds = Obs.Counter.make "cavsat.theory_builds"
let c_cache_hits = Obs.Counter.make "cavsat.theory_cache_hits"
let c_patches = Obs.Counter.make "cavsat.theory_patches"
let c_vars = Obs.Counter.make "cavsat.vars"
let c_clauses = Obs.Counter.make "cavsat.clauses"

type stats = { vars : int; clauses : int; conflict_edges : int }

(* Conflicting tid -> variable: open addressing with linear probing
   over two flat arrays ([min_int] marks an empty slot), doubled at half
   load, removal by backward shift so no tombstones build up across
   patches.  A lookup allocates nothing: the per-witness loops of
   [Certain] read it once per witness member. *)
module Vtbl = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let empty = min_int

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := !cap * 2
    done;
    { keys = Array.make !cap empty; vals = Array.make !cap 0; size = 0 }

  let home mask k = (k * 0x2545F4914F6CDD1D) lsr 17 land mask

  (* The slot holding [k], or the empty slot where it would go. *)
  let rec probe keys mask k s =
    let x = Array.unsafe_get keys s in
    if x = k || x = empty then s else probe keys mask k ((s + 1) land mask)

  (* The variable of tid [k], or 0. *)
  let find t k =
    let mask = Array.length t.keys - 1 in
    let s = probe t.keys mask k (home mask k) in
    if Array.unsafe_get t.keys s = k then Array.unsafe_get t.vals s else 0

  let rec replace t k v =
    if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) empty;
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.size <- 0;
      Array.iteri (fun s k -> if k <> empty then replace t k vals.(s)) keys
    end;
    let mask = Array.length t.keys - 1 in
    let s = probe t.keys mask k (home mask k) in
    if t.keys.(s) = empty then t.size <- t.size + 1;
    t.keys.(s) <- k;
    t.vals.(s) <- v

  (* Empty slot [i], then pull back every later entry of its run whose
     home is not in the cyclic range (i, j]. *)
  let remove t k =
    let keys = t.keys and mask = Array.length t.keys - 1 in
    let i = ref (probe keys mask k (home mask k)) in
    if keys.(!i) = k then begin
      t.size <- t.size - 1;
      keys.(!i) <- empty;
      let j = ref ((!i + 1) land mask) in
      while keys.(!j) <> empty do
        let h = home mask keys.(!j) in
        let stays = if !i <= !j then !i < h && h <= !j else !i < h || h <= !j in
        if not stays then begin
          keys.(!i) <- keys.(!j);
          t.vals.(!i) <- t.vals.(!j);
          keys.(!j) <- empty;
          i := !j
        end;
        j := (!j + 1) land mask
      done
    end

  let keys t =
    let a = Array.make t.size 0 and n = ref 0 in
    Array.iter
      (fun k ->
        if k <> empty then begin
          a.(!n) <- k;
          incr n
        end)
      t.keys;
    a
end

(* An aux-free maximality clause, shared by every tuple whose closed
   binary neighbourhood is [key]: [refs] of them. *)
type shared = { key : int array; clause : int; mutable refs : int }

type tuple = {
  tid : int;
  mutable edges : int list; (* edge ids, newest first *)
  mutable shared : shared option;
  mutable own : int list; (* aux implications and a maximality clause with aux *)
  mutable aux : int list; (* the aux variables of [own] *)
}

type edge = {
  members : Tid.Sorted.t;
  vars : int array; (* the members' variables: fixed while the edge lives *)
  mutable clauses : int list; (* independence (and self-violation) *)
  mutable live : bool;
}

type use = Free | Tuple of tuple | Aux of int * int (* edge id, owner tid *)

type state = {
  var_of : Vtbl.t; (* conflicting tid -> variable *)
  mutable uses : use array; (* variable -> what it stands for *)
  mutable edges : edge array; (* [0, n_edges) used; ids never reused *)
  mutable n_edges : int;
  mutable live_edges : int;
  mutable free : int list; (* variables with no live clause, for reuse *)
  mutable n_free : int;
}

type t = {
  solver : Dpll.t;
  no_repairs : bool;
  mutable base : stats;
  lock : Mutex.t;
  mutable encodes : Instance.t;
  state : state;
}

type delta = { from : Instance.t; added : Tid.Set.t; deleted : Tid.Set.t }

type name = Tuple of Tid.t | Aux of Tid.Sorted.t * Tid.t

let var_of_tid t tid = Vtbl.find t.state.var_of tid

let var_for t tid =
  match var_of_tid t (Tid.to_int tid) with 0 -> None | v -> Some v

let conflicting t =
  let a = Vtbl.keys t.state.var_of in
  Array.sort Int.compare a;
  a

let name_of t v =
  let st = t.state in
  if v < 1 || v >= Array.length st.uses then None
  else
    match st.uses.(v) with
    | Free -> None
    | Tuple u -> Some (Tuple (Tid.of_int u.tid))
    | Aux (e, owner) -> Some (Aux (st.edges.(e).members, Tid.of_int owner))

(* Called under [t.lock].  An equal instance becomes the one the theory
   encodes, as {!Constraints.Memo} re-files its entry, so the next check
   is a physical one and the earlier instance is not kept alive. *)
let encodes t inst =
  t.encodes == inst
  || Instance.digest t.encodes = Instance.digest inst
     && Instance.equal_with_tids t.encodes inst
     && begin
          t.encodes <- inst;
          true
        end

(* ---- the encoder ------------------------------------------------------

   The repair theory of one (instance, denial-class constraints) pair —
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
   has no S-repairs at all; [no_repairs] records that, and such a
   theory keeps its variables but no clause.

   Every clause belongs to one edge or one tuple, so a patch can remove
   exactly the clauses of the conflicts an update touched: an edge owns
   its independence clause (and its self-violation unit), a tuple its
   maximality clause with the aux variables and implications behind it.
   An aux-free maximality clause is shared by all tuples with the same
   closed binary neighbourhood (the tuples of a key group would
   otherwise each emit the same at-least-one clause) and removed when
   its last holder lets go.  Two tuples with equal closed neighbourhoods
   are neighbours, so the holders of a clause equal to a tuple's own are
   among its binary neighbours. *)

let add solver lits =
  let ci = Dpll.nclauses solver in
  Dpll.add_clause_list solver lits;
  ci

(* A variable with no live clause: a freed one first, else a fresh one. *)
let new_var st solver use =
  let v =
    match st.free with
    | v :: rest ->
        st.free <- rest;
        st.n_free <- st.n_free - 1;
        v
    | [] -> Dpll.fresh_var solver
  in
  if v >= Array.length st.uses then begin
    let uses = Array.make (max (2 * Array.length st.uses) (v + 1)) Free in
    Array.blit st.uses 0 uses 0 (Array.length st.uses);
    st.uses <- uses
  end;
  st.uses.(v) <- use;
  v

let free_var st v =
  st.uses.(v) <- Free;
  st.free <- v :: st.free;
  st.n_free <- st.n_free + 1

let tuple_of st v =
  match st.uses.(v) with Tuple u -> u | Free | Aux _ -> assert false

(* A variable for a tuple entering the theory. *)
let new_tuple st solver tid =
  let v =
    new_var st solver
      (Tuple { tid; edges = []; shared = None; own = []; aux = [] })
  in
  Vtbl.replace st.var_of tid v;
  v

(* Tuple [v]'s maximality clause: aux variables and their implications
   first, for its edges of three or more tuples (newest edge first), then
   x_v ∨ (its binary neighbours, ascending) ∨ (the aux literals).  None
   for a self-violating tuple. *)
let encode_tuple st solver v =
  let u = tuple_of st v in
  let vars e = st.edges.(e).vars in
  if not (List.exists (fun e -> Array.length (vars e) = 1) u.edges) then begin
    let direct =
      List.fold_left
        (fun acc e ->
          match vars e with
          | [| a; b |] -> (if a = v then b else a) :: acc
          | _ -> acc)
        [] u.edges
      |> List.sort Int.compare
    in
    let wide = List.filter (fun e -> Array.length (vars e) > 2) u.edges in
    match wide with
    | [] ->
        let rec insert = function
          | w :: rest when w < v -> w :: insert rest
          | l -> v :: l
        in
        let key = Array.of_list (insert direct) in
        let held w =
          match st.uses.(w) with
          | Tuple { shared = Some sh; _ }
            when Array.length sh.key = Array.length key
                 && Array.for_all2 Int.equal sh.key key ->
              Some sh
          | _ -> None
        in
        let sh =
          match List.find_map held direct with
          | Some sh ->
              sh.refs <- sh.refs + 1;
              sh
          | None -> { key; clause = add solver (v :: direct); refs = 1 }
        in
        u.shared <- Some sh
    | wide ->
        let aux =
          List.map
            (fun e ->
              let a = new_var st solver (Aux (e, u.tid)) in
              Array.iter
                (fun w -> if w <> v then u.own <- add solver [ -a; w ] :: u.own)
                (vars e);
              a)
            wide
        in
        u.aux <- aux;
        u.own <- add solver ((v :: direct) @ aux) :: u.own
  end

(* Take back tuple [v]'s maximality encoding. *)
let release_tuple st solver v =
  let u = tuple_of st v in
  List.iter (Dpll.remove_clause solver) u.own;
  List.iter (free_var st) u.aux;
  u.own <- [];
  u.aux <- [];
  Option.iter
    (fun sh ->
      sh.refs <- sh.refs - 1;
      if sh.refs = 0 then Dpll.remove_clause solver sh.clause)
    u.shared;
  u.shared <- None

let independence st solver e =
  let lits = Array.fold_right (fun w lits -> -w :: lits) st.edges.(e).vars [] in
  st.edges.(e).clauses <- [ add solver lits ]

(* Self-violating tuples are in no repair. *)
let self_violation st solver e =
  match st.edges.(e).vars with
  | [| w |] -> st.edges.(e).clauses <- add solver [ -w ] :: st.edges.(e).clauses
  | _ -> ()

let no_edge = { members = [||]; vars = [||]; clauses = []; live = false }

(* A live edge over tuples that have their variables, and its id; a
   tuple lists it in [edges] once the caller adds it. *)
let new_edge st members vars =
  if st.n_edges = Array.length st.edges then begin
    let edges = Array.make (max 16 (2 * st.n_edges)) no_edge in
    Array.blit st.edges 0 edges 0 st.n_edges;
    st.edges <- edges
  end;
  let e = st.n_edges in
  st.edges.(e) <- { members; vars; clauses = []; live = true };
  st.n_edges <- e + 1;
  st.live_edges <- st.live_edges + 1;
  e

let stats t =
  {
    vars = Dpll.nvars t.solver;
    clauses = Dpll.nclauses t.solver;
    conflict_edges = t.state.live_edges;
  }

(* ---- cold builds ----------------------------------------------------- *)

(* Straight from the sorted edge arrays: conflicting tuples are numbered
   [1..k] in ascending tid order through a dense tid-indexed scratch
   array (dropped after the build); then come the independence clauses
   (edge order), each tuple's maximality clause in variable order, and
   the self-violation units (edge order).  The theory keeps only the
   conflicting tuples, so what it holds is sized by the conflicts. *)
let of_edges inst (edge_list : Tid.Sorted.t list) =
  let n_edges = List.length edge_list in
  let no_repairs = List.exists (fun e -> Array.length e = 0) edge_list in
  let solver = Dpll.create () in
  let max_tid =
    List.fold_left
      (fun m e ->
        match Array.length e with 0 -> m | k -> max m (Tid.to_int e.(k - 1)))
      (-1) edge_list
  in
  (* Membership first, in the slots that then hold the variables. *)
  let var_of_tid = Array.make (max_tid + 1) 0 in
  List.iter (Array.iter (fun t -> var_of_tid.(Tid.to_int t) <- 1)) edge_list;
  let n_vars = Array.fold_left ( + ) 0 var_of_tid in
  let st =
    {
      var_of = Vtbl.create n_vars;
      uses = Array.make (n_vars + 1) Free;
      edges = Array.make n_edges no_edge;
      n_edges = 0;
      live_edges = 0;
      free = [];
      n_free = 0;
    }
  in
  Array.iteri
    (fun t s -> if s > 0 then var_of_tid.(t) <- new_tuple st solver t)
    var_of_tid;
  List.iter
    (fun m ->
      let vars = Array.map (fun t -> var_of_tid.(Tid.to_int t)) m in
      let e = new_edge st m vars in
      Array.iter
        (fun v ->
          let u = tuple_of st v in
          u.edges <- e :: u.edges)
        vars)
    edge_list;
  if not no_repairs then begin
    for e = 0 to n_edges - 1 do
      independence st solver e
    done;
    for v = 1 to n_vars do
      encode_tuple st solver v
    done;
    for e = 0 to n_edges - 1 do
      self_violation st solver e
    done
  end;
  let t =
    {
      solver;
      no_repairs;
      base = { vars = 0; clauses = 0; conflict_edges = 0 };
      lock = Mutex.create ();
      encodes = inst;
      state = st;
    }
  in
  t.base <- stats t;
  t

let build_as rebuild inst schema ics =
  Obs.Counter.incr c_builds;
  Obs.Trace.with_span "cavsat.theory_build" @@ fun () ->
  let t = of_edges inst (Conflict_graph.sorted_edges inst schema ics) in
  Obs.Counter.add c_vars t.base.vars;
  Obs.Counter.add c_clauses t.base.clauses;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.attr_int "edges" t.base.conflict_edges;
    Obs.Trace.attr_int "vars" t.base.vars;
    Obs.Trace.attr_int "clauses" t.base.clauses;
    Option.iter (Obs.Trace.attr "rebuild") rebuild
  end;
  t

let build inst schema ics = build_as None inst schema ics

(* ---- patches ---------------------------------------------------------- *)

(* Patch [t] from the theory of [d.from] to that of [inst]: drop the
   edges of the deleted tuples, add the edges of the added ones (on the
   post-write instance; an edge holding two added tuples is taken from
   the smaller one only), then re-encode the maximality clause of every
   tuple an edge change touched.  A tuple left with no edge gives its
   variable back, and freed variables are reused before fresh ones, so
   every freed variable has no live clause.  Denial bodies are
   monotone — a match needs only its own tuples — so the surviving
   edges of the base are edges of [inst], and every new edge holds an
   added tuple. *)
let patch t d inst schema ics =
  Obs.Trace.with_span "cavsat.theory_patch" @@ fun () ->
  (* First: a reader of the base that took this theory before it left
     the memo must not use it from here on, even if the patch raises
     half-way (a deadline) and the theory is dropped. *)
  t.encodes <- inst;
  let st = t.state and solver = t.solver in
  let removed0 = Dpll.removed_clauses solver in
  let touched = ref [] and edges_removed = ref 0 and edges_added = ref 0 in
  let drop_edge e =
    let edge = st.edges.(e) in
    if edge.live then begin
      edge.live <- false;
      st.live_edges <- st.live_edges - 1;
      incr edges_removed;
      List.iter (Dpll.remove_clause solver) edge.clauses;
      edge.clauses <- [];
      Array.iter
        (fun v ->
          let u = tuple_of st v in
          touched := u.tid :: !touched;
          u.edges <- List.filter (fun e' -> e' <> e) u.edges)
        edge.vars
    end
  in
  let add_edge members =
    let vars =
      Array.map
        (fun m ->
          match var_for t m with
          | Some v -> v
          | None -> new_tuple st solver (Tid.to_int m))
        members
    in
    let e = new_edge st members vars in
    incr edges_added;
    Array.iter
      (fun v ->
        let u = tuple_of st v in
        touched := u.tid :: !touched;
        u.edges <- e :: u.edges)
      vars;
    if not t.no_repairs then begin
      independence st solver e;
      self_violation st solver e
    end
  in
  Tid.Set.iter
    (fun tid ->
      Option.iter (fun v -> List.iter drop_edge (tuple_of st v).edges) (var_for t tid))
    d.deleted;
  Tid.Set.iter
    (fun tid ->
      let older_added m = Tid.compare m tid < 0 && Tid.Set.mem m d.added in
      List.iter
        (fun members ->
          if not (Array.exists older_added members) then add_edge members)
        (Conflict_graph.edges_with inst schema ics tid))
    d.added;
  (* Every touched encoding goes before any is redone: a shared clause
     and a freed variable must be let go by all their holders first. *)
  let touched =
    List.map (Vtbl.find st.var_of) (List.sort_uniq Int.compare !touched)
  in
  List.iter (release_tuple st solver) touched;
  let kept, dropped =
    List.partition (fun v -> (tuple_of st v).edges <> []) touched
  in
  List.iter
    (fun v ->
      Vtbl.remove st.var_of (tuple_of st v).tid;
      free_var st v)
    dropped;
  if not t.no_repairs then List.iter (encode_tuple st solver) kept;
  t.base <- stats t;
  Obs.Counter.incr c_patches;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.attr_int "tids_added" (Tid.Set.cardinal d.added);
    Obs.Trace.attr_int "tids_deleted" (Tid.Set.cardinal d.deleted);
    Obs.Trace.attr_int "edges_added" !edges_added;
    Obs.Trace.attr_int "edges_removed" !edges_removed;
    Obs.Trace.attr_int "clauses_removed"
      (Dpll.removed_clauses solver - removed0)
  end

(* Cached builds, in a {!Constraints.Memo} like the conflict graph's.
   Sharing the cached theory across the candidates of one query — and
   across queries on the same instance — is what makes the
   per-candidate work incremental: the conflict clauses are indexed
   once, and each candidate only adds (and then rolls back) its own
   witness clauses.  Across an update the base's theory moves to the
   new instance's key, patched; it is built cold instead once removed
   clauses or freed variables outnumber the live ones (the solver never
   compacts itself), or when the delta is larger than the theory. *)

let cache = Constraints.Memo.create ~hits:c_cache_hits ()

let cached ?delta inst schema ics =
  let rebuild = ref None in
  (* Under the lock: a probe on the theory changes the solver's counts
     until it rolls back. *)
  let patch_with d t =
    Mutex.protect t.lock @@ fun () ->
    let solver = t.solver in
    let live_clauses = Dpll.nclauses solver - Dpll.removed_clauses solver in
    let live_vars = Dpll.nvars solver - t.state.n_free in
    rebuild :=
      if Dpll.removed_clauses solver > live_clauses || t.state.n_free > live_vars
      then Some "dead_clauses"
      else if
        Tid.Set.cardinal d.added + Tid.Set.cardinal d.deleted
        > t.state.var_of.Vtbl.size
      then Some "large_delta"
      else if Dpll.learned_clauses solver > 0 then Some "learned_clauses"
      else None;
    if Option.is_some !rebuild then None
    else begin
      patch t d inst schema ics;
      Some t
    end
  in
  Constraints.Memo.find_or_build
    ?patch:(Option.map (fun d -> (d.from, patch_with d)) delta)
    cache inst ics
    (fun () -> build_as !rebuild inst schema ics)
