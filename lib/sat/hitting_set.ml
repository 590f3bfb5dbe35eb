module Iset = Set.Make (Int)

(* Branch nodes explored by the minimal-hitting-set search — one per
   partial set extended; the repair enumerator's work unit. *)
let c_nodes = Obs.Counter.make "sat.hitting_set.nodes"

let is_hitting edges set =
  let s = Iset.of_list set in
  List.for_all (fun e -> List.exists (fun v -> Iset.mem v s) e) edges

let is_minimal_hitting edges set =
  is_hitting edges set
  && List.for_all
       (fun v -> not (is_hitting edges (List.filter (fun u -> u <> v) set)))
       set

let minimal edges =
  if List.exists (( = ) []) edges then []
  else begin
    let sp = Obs.Trace.start "sat.hitting_sets" in
    (* Seed the branching with the tightest conflicts first: branching on
       small edges (an FD bucket pair has just two vertices) keeps the
       search tree narrow.  The result is a set of sets, so reordering the
       edges never changes the output, only the node count. *)
    let edges =
      List.stable_sort
        (fun a b -> Int.compare (List.length a) (List.length b))
        edges
    in
    let candidates = ref [] in
    let seen = Hashtbl.create 64 in
    let rec go partial =
      Obs.Counter.incr c_nodes;
      Obs.Progress.tick ();
      match List.find_opt (fun e -> not (List.exists (fun v -> Iset.mem v partial) e)) edges with
      | None ->
          let key = Iset.elements partial in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            candidates := key :: !candidates
          end
      | Some e -> List.iter (fun v -> go (Iset.add v partial)) e
    in
    go Iset.empty;
    (* The greedy completion can produce non-minimal hitting sets; keep the
       set-inclusion-minimal ones. *)
    let cands = !candidates in
    let result =
      List.filter
        (fun c ->
          let cs = Iset.of_list c in
          not
            (List.exists
               (fun c' ->
                 c' != c
                 &&
                 let cs' = Iset.of_list c' in
                 Iset.subset cs' cs && not (Iset.equal cs' cs))
               cands))
        cands
    in
    if Obs.Trace.is_enabled () then
      Obs.Trace.attr_int "hitting_sets" (List.length result);
    Obs.Trace.finish sp;
    result
  end

let vertices edges =
  List.fold_left (fun acc e -> List.fold_left (fun acc v -> Iset.add v acc) acc e) Iset.empty edges

(* Connected components of the hypergraph, as groups of edges.  Union-find
   over vertices; components are ordered by the first edge that touches
   them and keep their edges in input order, so the decomposition is
   deterministic.  Edges of distinct components share no vertex, hence the
   minimal hitting sets of the whole hypergraph are exactly the unions of
   one minimal hitting set per component — the parallel repair enumerator
   rests on that. *)
let components edges =
  let parent = Hashtbl.create 64 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None | Some None -> v
    | Some (Some p) ->
        let r = find p in
        Hashtbl.replace parent v (Some r);
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra (Some rb)
  in
  List.iter
    (fun e ->
      List.iter (fun v -> if not (Hashtbl.mem parent v) then Hashtbl.add parent v None) e;
      match e with [] -> () | v :: rest -> List.iter (union v) rest)
    edges;
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i e ->
      (* Empty edges are their own (unhittable) components. *)
      let key = match e with [] -> `Empty i | v :: _ -> `Root (find v) in
      (match Hashtbl.find_opt groups key with
      | None ->
          order := key :: !order;
          Hashtbl.add groups key [ e ]
      | Some es -> Hashtbl.replace groups key (e :: es)))
    edges;
  List.rev_map (fun key -> List.rev (Hashtbl.find groups key)) !order

let minimum_weighted ~weight edges =
  if edges = [] then Some []
  else if List.exists (( = ) []) edges then None
  else begin
    let verts = Iset.elements (vertices edges) in
    let index = Hashtbl.create 64 and back = Hashtbl.create 64 in
    List.iteri
      (fun i v ->
        Hashtbl.add index v (i + 1);
        Hashtbl.add back (i + 1) v)
      verts;
    let solver = Dpll.create () in
    Dpll.reserve solver (List.length verts);
    List.iter
      (fun e -> Dpll.add_clause_list solver (List.map (Hashtbl.find index) e))
      edges;
    let soft = List.mapi (fun i v -> (i + 1, weight v)) verts in
    match Dpll.minimize_weighted ~soft solver with
    | None -> None
    | Some (_cost, model) ->
        Some (List.map (Hashtbl.find back) (Dpll.model_true_vars model))
  end

let minimum edges = minimum_weighted ~weight:(fun _ -> 1.0) edges
let minimum_size edges = Option.map List.length (minimum edges)

let minimum_all edges =
  match minimum_size edges with
  | None -> []
  | Some k -> List.filter (fun h -> List.length h = k) (minimal edges)
