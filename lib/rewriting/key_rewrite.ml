module Formula = Logic.Formula
module Cq = Logic.Cq
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp
module Subst = Logic.Subst
module Attack_graph = Analysis.Attack_graph

let c_applicable = Obs.Counter.make "rewrite.key_applicable"
let c_unsupported = Obs.Counter.make "rewrite.key_unsupported"

let of_input (ri : Attack_graph.rewriting_input) =
  let q = ri.query in
  let helpers =
    List.map (fun (r : Datalog.Rule.t) -> (r.head.Atom.rel, r)) ri.prefix
  in
  let atoms = Array.of_list q.body in
  let ordered = Array.of_list (List.map (fun i -> atoms.(i)) ri.order) in
  let n = Array.length ordered in
  (* Names no parsed query can produce, unique across the whole formula:
     every nested scope re-quantifies the variables it binds. *)
  let counter = ref 0 in
  let fresh base =
    incr counter;
    Printf.sprintf "%s#%d" base !counter
  in
  let bound s v = Subst.find s v <> None in
  let bind_same s vs = List.fold_left (fun s v -> Subst.bind s v (Term.var v)) s vs in
  let bind_fresh s vs =
    let names = List.map fresh vs in
    (List.fold_left2 (fun s v u -> Subst.bind s v (Term.var u)) s vs names, names)
  in
  (* Each comparison is checked at the first level binding all of its
     variables, per tuple of that level's key block. *)
  let first_level v =
    let rec go l = if List.mem v (Atom.vars ordered.(l)) then l else go (l + 1) in
    go 0
  in
  let comps_at s l =
    List.filter
      (fun c -> List.fold_left (fun m v -> max m (first_level v)) 0 (Cmp.vars c) = l)
      q.comps
    |> List.map (fun c -> Formula.Cmp (Subst.apply_cmp s c))
  in
  (* An all-key atom under [s].  A saturation helper stands for its
     defining body over the raw database, quantified apart. *)
  let occurrence s (a : Atom.t) =
    match List.assoc_opt a.Atom.rel helpers with
    | None -> ([], [ Formula.Atom (Subst.apply_atom s a) ])
    | Some r ->
        let s' =
          List.fold_left2
            (fun acc h t ->
              match h with
              | Term.Var v -> Subst.bind acc v (Subst.apply_term s t)
              | Term.Const _ -> acc)
            Subst.empty r.Datalog.Rule.head.Atom.args a.Atom.args
        in
        let locals =
          List.concat_map Atom.vars r.body_pos
          |> List.sort_uniq String.compare
          |> List.filter (fun v -> not (bound s' v))
        in
        let s', names = bind_fresh s' locals in
        ( names,
          List.map (fun b -> Formula.Atom (Subst.apply_atom s' b)) r.body_pos
          @ List.map (fun c -> Formula.Cmp (Subst.apply_cmp s' c)) r.comps )
  in
  (* [certain ~top l s]: existential variables and conjuncts stating that
     the levels from [l] on are certain, [s] mapping every variable the
     enclosing levels bound.  Eliminating the unattacked atom R(key, ū)
     keeps some key block all of whose tuples satisfy the level's
     conditions and leave a certain remainder:

       ∃κ ē (R(key, ē) ∧ ∀ū (R(key, ū) → conds(ū) ∧ ∃v̄ (certain l+1)))

     An all-key level has one tuple per block, so its conditions join
     the enclosing conjunction.  At the top scope the query body already
     binds every variable ([∃ body ∧ G]): all-key levels there only
     widen [s], and the first guard's atom is not repeated. *)
  let rec certain ~top l s =
    if l >= n then ([], [])
    else
      let a = ordered.(l) in
      let ps = Attack_graph.key_positions ri.keys a in
      let is_key pos = List.mem pos ps in
      let kvars =
        Term.vars (List.filteri (fun pos _ -> is_key pos) a.Atom.args)
        |> List.filter (fun v -> not (bound s v))
      in
      let s, kappa = if top then (bind_same s kvars, []) else bind_fresh s kvars in
      let nonkey =
        List.mapi (fun pos t -> (pos, t)) a.Atom.args
        |> List.filter (fun (pos, _) -> not (is_key pos))
      in
      if nonkey = [] then
        let hv, here =
          if top then ([], [])
          else
            let hv, here = occurrence s a in
            (hv, here @ comps_at s l)
        in
        let rv, rest = certain ~top (l + 1) s in
        (kappa @ hv @ rv, here @ rest)
      else
        let name_nonkey base =
          List.map
            (fun (pos, _) -> (pos, fresh (Printf.sprintf "%s%d_%d" base l pos)))
            nonkey
        in
        let atom_with names =
          Atom.make a.Atom.rel
            (List.mapi
               (fun pos t ->
                 match List.assoc_opt pos names with
                 | Some u -> Term.var u
                 | None -> Subst.apply_term s t)
               a.Atom.args)
        in
        let mates = name_nonkey "u" in
        (* The mate tuple's conditions: constants and variables bound
           before this level become equalities; a variable's first
           non-key occurrence names the mate column for what follows. *)
        let s', conds =
          List.fold_left
            (fun (s', conds) (pos, t) ->
              let u = Term.var (List.assoc pos mates) in
              match t with
              | Term.Const _ -> (s', Formula.Cmp (Cmp.eq u t) :: conds)
              | Term.Var v -> (
                  match Subst.find s' v with
                  | Some t' -> (s', Formula.Cmp (Cmp.eq u t') :: conds)
                  | None -> (Subst.bind s' v u, conds)))
            (s, []) nonkey
        in
        let cv, cc = certain ~top:false (l + 1) s' in
        let child =
          if l + 1 >= n then [] else [ Formula.Exists (cv, Formula.conj cc) ]
        in
        let guard =
          match List.rev conds @ comps_at s' l @ child with
          | [] -> []
          | body ->
              [
                Formula.Forall
                  ( List.map snd mates,
                    Formula.Implies
                      (Formula.Atom (atom_with mates), Formula.conj body) );
              ]
        in
        if top then ([], guard)
        else
          let es = name_nonkey "e" in
          (kappa @ List.map snd es, Formula.Atom (atom_with es) :: guard)
  in
  let body =
    List.filter (fun (a : Atom.t) -> not (List.mem_assoc a.rel helpers)) q.body
  in
  let head = Cq.head_vars q in
  let _, guard = certain ~top:true 0 (bind_same Subst.empty head) in
  let evars =
    Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) body)
    |> List.filter (fun v -> not (List.mem v head))
  in
  Formula.exists evars
    (Formula.conj
       (List.map (fun a -> Formula.Atom a) body
       @ List.map (fun c -> Formula.Cmp c) q.comps
       @ guard))

(* Builds the formula of a prepared input, counted and traced. *)
let build ri =
  Obs.Trace.with_span "rewrite.key" (fun () ->
      Obs.Counter.incr c_applicable;
      of_input ri)

let input q ~keys =
  let ri = Attack_graph.rewriting_input q ~keys in
  if Option.is_none ri then Obs.Counter.incr c_unsupported;
  ri

let rewrite q ~keys = Option.map build (input q ~keys)

let answers (ri : Attack_graph.rewriting_input) inst =
  let f = build ri in
  Obs.Trace.with_span "rewrite.eval" (fun () ->
      Formula.answers inst ~free:(Cq.head_vars ri.query) f)

let consistent_answers q ~keys inst =
  Option.map (fun ri -> answers ri inst) (input q ~keys)
