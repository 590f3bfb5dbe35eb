module Instance = Relational.Instance
module Tvl = Relational.Tvl
module Value = Relational.Value
module Plan = Relational.Plan
module Columnar = Relational.Columnar
module Column = Relational.Column

let c_scan_row = Obs.Counter.make "scan.row"

type t =
  | True
  | False
  | Atom of Atom.t
  | Cmp of Cmp.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string list * t
  | Forall of string list * t

let conj = function
  | [] -> True
  | f :: rest -> List.fold_left (fun acc g -> And (acc, g)) f rest

let disj = function
  | [] -> False
  | f :: rest -> List.fold_left (fun acc g -> Or (acc, g)) f rest

let exists vs f = if vs = [] then f else Exists (vs, f)
let forall vs f = if vs = [] then f else Forall (vs, f)

let of_cq_body (q : Cq.t) =
  conj (List.map (fun a -> Atom a) q.body @ List.map (fun c -> Cmp c) q.comps)

let of_cq (q : Cq.t) = exists (Cq.existential_vars q) (of_cq_body q)

let rec free_vars = function
  | True | False -> []
  | Atom a -> Atom.vars a
  | Cmp c -> Cmp.vars c
  | Not f -> free_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      let va = free_vars a in
      va @ List.filter (fun v -> not (List.mem v va)) (free_vars b)
  | Exists (vs, f) | Forall (vs, f) ->
      List.filter (fun v -> not (List.mem v vs)) (free_vars f)

let rec substitute s = function
  | (True | False) as f -> f
  | Atom a -> Atom (Subst.apply_atom s a)
  | Cmp c -> Cmp (Subst.apply_cmp s c)
  | Not f -> Not (substitute s f)
  | And (a, b) -> And (substitute s a, substitute s b)
  | Or (a, b) -> Or (substitute s a, substitute s b)
  | Implies (a, b) -> Implies (substitute s a, substitute s b)
  | Exists (vs, f) -> Exists (vs, substitute s f)
  | Forall (vs, f) -> Forall (vs, substitute s f)

(* Negation normal form, pushing negations to literals (Kleene-valid, and
   valid for our two-valued quantifiers).  Comparisons absorb the negation
   via [Cmp.negate], so NNF turns e.g. ¬(E(x,z) → y=z) into the
   generator-friendly conjunction E(x,z) ∧ y≠z. *)
let rec nnf = function
  | (True | False | Atom _ | Cmp _) as f -> f
  | Not f -> neg f
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Implies (a, b) -> Or (neg a, nnf b)
  | Exists (vs, f) -> Exists (vs, nnf f)
  | Forall (vs, f) -> Forall (vs, nnf f)

and neg = function
  | True -> False
  | False -> True
  | Atom _ as f -> Not f
  | Cmp c -> Cmp (Cmp.negate c)
  | Not f -> nnf f
  | And (a, b) -> Or (neg a, neg b)
  | Or (a, b) -> And (neg a, neg b)
  | Implies (a, b) -> And (nnf a, neg b)
  | Exists (vs, f) -> Forall (vs, neg f)
  | Forall (vs, f) -> Exists (vs, neg f)

let rec flatten_conj = function
  | And (a, b) -> flatten_conj a @ flatten_conj b
  | True -> []
  | f -> [ f ]

(* Match one atom against one stored row, extending [env].  A bound variable
   or a constant must match via three-valued equality being definitely true,
   which is what makes NULL unable to satisfy joins. *)
let match_row env (a : Atom.t) row =
  let n = List.length a.args in
  if n <> Array.length row then None
  else
    let rec go env i = function
      | [] -> Some env
      | t :: rest -> (
          let v = row.(i) in
          match t with
          | Term.Const c ->
              if Tvl.to_bool (Value.sql_eq c v) then go env (i + 1) rest
              else None
          | Term.Var x -> (
              match Binding.find env x with
              | Some bound ->
                  if Tvl.to_bool (Value.sql_eq bound v) then go env (i + 1) rest
                  else None
              | None -> go (Binding.bind env x v) (i + 1) rest))
    in
    go env 0 a.args

(* Positions of [a] whose value is already forced: constant arguments,
   variables bound in [env], and unbound variables equated by a pending
   equality comparison to a term that evaluates under [env].  Pruning
   candidate rows by these positions is exact: a row excluded here would
   be rejected by [match_row] or by the comparison check after it. *)
let bound_pattern env (a : Atom.t) pending =
  let eq_value x =
    List.find_map
      (fun (c : Cmp.t) ->
        if c.op <> Cmp.Eq then None
        else
          match c.left, c.right with
          | Term.Var y, t when String.equal y x -> Binding.term_value env t
          | t, Term.Var y when String.equal y x -> Binding.term_value env t
          | _, _ -> None)
      pending
  in
  List.mapi (fun i t -> (i, t)) a.args
  |> List.filter_map (fun (i, t) ->
         match t with
         | Term.Const c -> Some (i, c)
         | Term.Var x -> (
             match Binding.find env x with
             | Some v -> Some (i, v)
             | None -> Option.map (fun v -> (i, v)) (eq_value x)))

(* The truth value of one atom against one stored row: conjunction of
   three-valued equalities, so that NULL in a compared position yields
   Unknown rather than a match. *)
let match_row_tvl env (a : Atom.t) row =
  let n = List.length a.args in
  if n <> Array.length row then Tvl.False
  else
    let rec go i acc = function
      | [] -> acc
      | t :: rest -> (
          if acc = Tvl.False then Tvl.False
          else
            let v = row.(i) in
            match t with
            | Term.Const c -> go (i + 1) Tvl.(acc &&& Value.sql_eq c v) rest
            | Term.Var x -> (
                match Binding.find env x with
                | Some bound -> go (i + 1) Tvl.(acc &&& Value.sql_eq bound v) rest
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Formula.eval: unbound variable %s in atom %s" x a.rel)))
    in
    go 0 Tvl.True a.args

(* Row lookups private to one [eval]/[holds]/[interpret] call: per
   (relation, positions), the relation's rows grouped by their values at
   those positions, rows with a NULL there left out (NULL SQL-equals
   nothing).  A group is built at its first lookup and dropped with the
   call, so the interpreter, the reference the compiled plans are
   checked against, shares no index with them. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash = Hashtbl.hash
end)

type ctx = {
  inst : Instance.t;
  groups : (string * int list, Value.t array list Vtbl.t) Hashtbl.t;
}

let context inst = { inst; groups = Hashtbl.create 8 }

(* Rows in tid order, within each group too. *)
let group ctx rel positions =
  match Hashtbl.find_opt ctx.groups (rel, positions) with
  | Some g -> g
  | None ->
      let g = Vtbl.create 64 in
      List.iter
        (fun row ->
          let k = List.map (fun p -> row.(p)) positions in
          if not (List.exists Value.is_null k) then
            Vtbl.replace g k
              (row :: Option.value ~default:[] (Vtbl.find_opt g k)))
        (List.rev (Instance.rows ctx.inst ~rel));
      Hashtbl.replace ctx.groups (rel, positions) g;
      g

(* The rows of [a]'s relation that SQL-equal [v] at every [(p, v)] of
   [bound] (positions ascending, as [bound_pattern] lists them) — or all
   of them when nothing is bound or the atom's arity is not the
   relation's, which [match_row] then filters. *)
let candidates ctx (a : Atom.t) bound =
  let schema = Instance.schema ctx.inst in
  if
    bound = []
    || not
         (Relational.Schema.mem schema a.rel
         && Relational.Schema.arity schema a.rel = List.length a.args)
  then Instance.rows ctx.inst ~rel:a.rel
  else if List.exists (fun (_, v) -> Value.is_null v) bound then []
  else
    Option.value ~default:[]
      (Vtbl.find_opt
         (group ctx a.rel (List.map fst bound))
         (List.map snd bound))

let rec eval_in ctx env f : Tvl.t =
  match f with
  | True -> Tvl.True
  | False -> Tvl.False
  | Atom a ->
      List.fold_left
        (fun acc row ->
          match acc with
          | Tvl.True -> Tvl.True
          | _ -> Tvl.(acc ||| match_row_tvl env a row))
        Tvl.False
        (Instance.rows ctx.inst ~rel:a.Atom.rel)
  | Cmp c -> Binding.eval_cmp env c
  | Not f -> Tvl.not_ (eval_in ctx env f)
  | And (a, b) -> Tvl.(eval_in ctx env a &&& eval_in ctx env b)
  | Or (a, b) -> Tvl.(eval_in ctx env a ||| eval_in ctx env b)
  | Implies (a, b) -> Tvl.(not_ (eval_in ctx env a) ||| eval_in ctx env b)
  | Exists (vs, f) -> Tvl.of_bool (exists_sat ctx env vs f)
  | Forall (vs, f) -> Tvl.of_bool (not (exists_sat ctx env vs (Not f)))

and exists_sat ctx env vs f =
  let exception Found in
  try
    sat ctx env vs (flatten_conj (nnf f)) (fun _ -> raise Found);
    false
  with Found -> true

(* Enumerate extensions of [env] binding all of [vs] that make every
   conjunct definitely true.  Positive atom conjuncts act as generators;
   once a generator has produced a binding from a stored tuple it is removed
   from the residual conjuncts (its truth is witnessed by that tuple), which
   is also what lets a NULL-valued tuple satisfy its own atom while still
   failing any join it participates in. *)
and sat ctx env vs conjs k =
  let unbound = List.filter (fun v -> not (Binding.mem env v)) vs in
  match unbound with
  | [] ->
      if List.for_all (fun c -> eval_in ctx env c = Tvl.True) conjs then k env
  | _ -> (
      let is_generator = function
        | Atom a -> List.exists (fun v -> List.mem v unbound) (Atom.vars a)
        | _ -> false
      in
      let rec split acc = function
        | [] -> None
        | c :: rest when is_generator c -> Some (c, List.rev_append acc rest)
        | c :: rest -> split (c :: acc) rest
      in
      match split [] conjs with
      | Some (Atom a, rest) ->
          (* Candidate rows are those matching the positions the
             environment and the pending equality conjuncts force; rows
             left out would fail [match_row] or the final conjunct
             evaluation.  [rest] keeps every comparison, so the pruning
             comparisons are still re-checked before [k] fires. *)
          let pending =
            List.filter_map (function Cmp c -> Some c | _ -> None) rest
          in
          List.iter
            (fun row ->
              match match_row env a row with
              | Some env' -> sat ctx env' vs rest k
              | None -> ())
            (candidates ctx a (bound_pattern env a pending))
      | Some _ -> assert false
      | None ->
          let v = List.hd unbound in
          List.iter
            (fun value -> sat ctx (Binding.bind env v value) vs conjs k)
            (Instance.active_domain ctx.inst))

let eval inst env f = eval_in (context inst) env f
let holds inst f = eval inst Binding.empty f = Tvl.True

module Row_set = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* --- compiled columnar evaluation ----------------------------------- *)

(* Compilation of the guarded ∃∀-shapes the FO rewritings produce.  The
   unit is a *conjunction*: after [flatten_conj], the items the
   interpreter evaluates are positive atoms (generators), comparisons
   (definite filters) and guards evaluated per generated binding.  That
   conjunction compiles to

     conj = (⋈ atoms) σ comparisons ∖ π( ⋃ per-guard refutations )

   Two guard shapes compile:

   - the key rewriting's [∀ū (A → cond1 ∧ ... ∧ condk)]
     ([Rewriting.Key_rewrite]): its refutation ranges over [conj ⋈ A]
     (the key-mates of each surviving binding); a negated comparison
     becomes a disjunctive filter branch, and a child [∃ v̄ conj']
     becomes an antijoin against the recursively compiled child
     conjunction;
   - the residue rewriting's [∀ū (¬B1 ∨ ... ∨ ¬Bm ∨ L1 ∨ ... ∨ Lk)]
     ([Rewriting.Residue_rewrite]), with comparisons [Li]: it is
     refuted by one conjunction [B1 ∧ ... ∧ Bm ∧ ¬L1 ∧ ... ∧ ¬Lk],
     compiled over the conjunction table by [compile_conj ~seed].  A
     literal [u ≠ t] with [u] a guard variable of some [Bi] is
     substituted into the atoms instead: its refutation needs [u = t]
     definitely true, which is what a join on [t] gives (the argument
     [bound_pattern] rests on), while kept as a filter it would leave
     [u] to a cross product.  Every residue has this shape: [ū] may be
     empty (κ's [∀ (¬S(x) ∨ ¬S(y))], whose variables the query atom
     binds), and a constraint constant [c] is a literal [x ≠ c] on a
     free variable, which stays a filter.

   Quantifiers are two-valued exactly as in [eval]/[sat], and a
   NULL-keyed join refutes nothing (NULL never joins), matching the
   interpreter's definite-match generators.  Any other shape — a
   positive atom under a guard (an inclusion dependency's residue;
   [eval] tells False from Unknown there) — falls back to the
   interpreter, as does any quantified variable no atom generates (the
   interpreter enumerates the active domain for those). *)

exception Unsupported_plan

let rec strip_exists = function
  | Exists (vs, f) ->
      let vs', g = strip_exists f in
      (vs @ vs', g)
  | f -> ([], f)

(* The residue guard [∀us body] as the atoms and comparisons whose
   conjunction refutes it (see above), after substituting the [u ≠ t]
   literals away; [None] if a [True] disjunct makes it refute nothing. *)
let refutation us body =
  let rec literals = function
    | Or (a, b) -> literals a @ literals b
    | False -> []
    | (True | Not (Atom _) | Cmp _) as l -> [ l ]
    | _ -> raise Unsupported_plan
  in
  let lits = literals body in
  let rec subst us atoms cmps =
    let generated = List.concat_map Atom.vars atoms in
    let pick (c : Cmp.t) =
      let side l t =
        match l with
        | Term.Var u
          when c.op = Cmp.Neq && List.mem u us && List.mem u generated
               && not (Term.equal t l || t = Term.Const Value.Null) ->
            Some (c, u, t)
        | _ -> None
      in
      match side c.left c.right with None -> side c.right c.left | s -> s
    in
    match List.find_map pick cmps with
    | None ->
        if not (List.for_all (fun u -> List.mem u generated) us) then
          raise Unsupported_plan;
        (atoms, List.map Cmp.negate cmps)
    | Some (c, u, t) ->
        let s = Subst.singleton u t in
        subst
          (List.filter (fun v -> v <> u) us)
          (List.map (Subst.apply_atom s) atoms)
          (List.filter_map
             (fun c' -> if c' == c then None else Some (Subst.apply_cmp s c'))
             cmps)
  in
  if List.mem True lits then None
  else
    Some
      (subst us
         (List.filter_map (function Not (Atom b) -> Some b | _ -> None) lits)
         (List.filter_map (function Cmp c -> Some c | _ -> None) lits))

let c_join_fused = Obs.Counter.make "join.fused"
let c_probe_rows = Obs.Counter.make "join.probe_rows"

(* The rows of [tbl], a materialized conjunction table whose column
   [ord] numbers its rows [0, n), that no plan of [bads] returns the
   ordinal of, restricted to [cols].  Each refutation marks the
   ordinals it returns in one bitmap over [0, n): an antijoin by row
   identity that builds no index.  It is counted as the antijoin kernel
   it stands for: [join.fused] once a refutation, [join.probe_rows] the
   rows still standing when it runs. *)
let subtract_refuted inst tbl ~ord ~cols bads =
  let n = Columnar.length tbl in
  let refuted = Column.bitmap n in
  let standing = ref n in
  List.iter
    (fun bad ->
      Obs.Counter.incr c_join_fused;
      Obs.Counter.add c_probe_rows !standing;
      let ords = Plan.run inst (Plan.Project ([ ord ], bad)) in
      match (Columnar.column ords ord).Column.data with
      | Column.Ints os ->
          for i = 0 to Array.length os - 1 do
            if i land 4095 = 0 then Obs.Progress.tick ();
            let o = Array.unsafe_get os i in
            if not (Column.bit_get refuted o) then begin
              Column.bit_set refuted o;
              decr standing
            end
          done
      | _ -> invalid_arg "Formula: row ordinals are not an Ints column")
    bads;
  let kept =
    Columnar.make (Array.of_list cols)
      (Array.of_list (List.map (Columnar.column tbl) cols))
      n
  in
  if !standing = n then kept
  else begin
    let sel = Array.make !standing 0 in
    let k = ref 0 in
    for o = 0 to n - 1 do
      if not (Column.bit_get refuted o) then begin
        Array.unsafe_set sel !k o;
        incr k
      end
    done;
    Columnar.select kept sel
  end

let plan_of_formula inst f =
  let schema = Instance.schema inst in
  let scan_plan (a : Atom.t) =
    if not (Relational.Schema.mem schema a.Atom.rel) then
      (* The interpreter raises on undeclared relations; let it. *)
      raise Unsupported_plan;
    let args =
      List.map
        (function
          | Term.Const v -> Plan.Aconst v
          | Term.Var x -> Plan.Avar x)
        a.args
    in
    Plan.Scan { rel = a.Atom.rel; args; tid = None }
  in
  let pred_of cols (c : Cmp.t) =
    let conv = function
      | Term.Const v -> Plan.Const v
      | Term.Var x ->
          if List.mem x cols then Plan.Col x else raise Unsupported_plan
    in
    { Plan.op = Cq.plan_op c.op; left = conv c.left; right = conv c.right }
  in
  let require vs cols =
    if not (List.for_all (fun v -> List.mem v cols) vs) then
      raise Unsupported_plan
  in
  (* Row-identity column for guard subtraction; the leading '#' keeps it
     out of the variable namespace (like [Instance.tid_column]). *)
  let ord_col = "#ord" in
  (* Rows binding the conjunction's variables so that every item is
     definitely true. *)
  let rec compile_conj ?seed items =
    if List.mem False items then `Empty
    else begin
      let atoms, guards, cmps =
        List.fold_left
          (fun (ats, gs, cs) item ->
            match item with
            | Atom a -> (a :: ats, gs, cs)
            | Forall (us, Implies (Atom mate, conds)) ->
                (* A mate variable outside the mate atom would send the
                   refutation search to the active domain. *)
                require us (Atom.vars mate);
                (ats, `Mate (mate, conds) :: gs, cs)
            | Forall (us, body) -> (
                (* A residue guard (see [refutation]). *)
                match refutation us body with
                | None -> (ats, gs, cs)
                | Some (batoms, negs) ->
                    (ats, `Refute (free_vars item, batoms, negs) :: gs, cs))
            | Cmp c -> (ats, gs, c :: cs)
            | _ -> raise Unsupported_plan)
          ([], [], []) items
      in
      let atoms = List.rev atoms
      and guards = List.rev guards
      and cmps = List.rev cmps in
      let with_cols p = (p, Plan.cols p) in
      match Option.to_list seed @ List.map scan_plan atoms with
      | [] -> raise Unsupported_plan (* atomless bodies: active domain *)
      | first :: rest ->
          let joined, all_cols =
            List.fold_left
              (fun (plan, vars) (p, vs) ->
                ( Plan.Join (plan, p),
                  vars @ List.filter (fun v -> not (List.mem v vars)) vs ))
              (with_cols first)
              (List.map with_cols rest)
          in
          let preds = List.map (pred_of all_cols) cmps in
          let filtered =
            if preds = [] then joined else Plan.Filter (Plan.All preds, joined)
          in
          (* When guards are present the conjunction table feeds the
             refutation subtraction AND every guard's mate join:
             materialize it once, with a synthetic ordinal column, so
             (a) the plan tree — which has no sharing — does not
             re-execute it per use and (b) refuted rows are subtracted
             by row identity ([subtract_refuted]) instead of a
             value-keyed diff.  A guard refutes a binding by its
             values alone, and value-equal rows pick up the same mate
             matches, so identity subtraction removes exactly the
             value-refuted rows. *)
          let table =
            if guards = [] then None
            else begin
              let tbl = Plan.run inst filtered in
              let n = Columnar.length tbl in
              let ords = Array.make n 0 in
              for i = 1 to n - 1 do
                Array.unsafe_set ords i i
              done;
              let ord = Column.of_ints ords in
              Some
                (Columnar.make
                   (Array.append (Columnar.cols tbl) [| ord_col |])
                   (Array.append (Columnar.columns tbl) [| ord |])
                   n)
            end
          in
          let filtered =
            match table with None -> filtered | Some t -> Plan.Table t
          in
          let bads =
            List.concat_map
              (function
              | `Refute (free, atoms, negs) -> (
                  require free all_cols;
                  match
                    compile_conj ~seed:filtered
                      (List.map (fun a -> Atom a) atoms
                      @ List.map (fun c -> Cmp c) negs)
                  with
                  | `Empty -> []
                  | `Plan (p, _) -> [ p ])
              | `Mate (mate, conds) ->
                let jm = Plan.Join (filtered, scan_plan mate) in
                let jm_cols = Plan.cols jm in
                let conds = flatten_conj conds in
                let neg_preds =
                  List.filter_map
                    (function
                      | Cmp c -> Some (pred_of jm_cols (Cmp.negate c))
                      | _ -> None)
                    conds
                in
                (* A child [∃ v̄ g] is correlated with the mate binding
                   through its free variables.  Those its own atoms do
                   not generate would be silently existential in a
                   standalone child table, so such a child is seeded
                   with the distinct mate-join values of its free
                   variables; the antijoin then matches on all of
                   them. *)
                let makers =
                  List.filter_map
                    (function
                      | Cmp _ -> None
                      | False -> Some `Jm
                      | Exists (vs, g) as child ->
                          let items = flatten_conj g in
                          let free = free_vars child in
                          require free jm_cols;
                          let generated =
                            List.concat_map
                              (function Atom a -> Atom.vars a | _ -> [])
                              items
                          in
                          let seeded =
                            not (List.for_all (fun v -> List.mem v generated) free)
                          in
                          Some (`Child (vs, items, free, seeded))
                      | _ -> raise Unsupported_plan)
                    conds
                in
                (* Same sharing argument for the mate join when several
                   refutation branches (or child seeds) range over it. *)
                let uses =
                  (if neg_preds = [] then 0 else 1)
                  + List.fold_left
                      (fun n -> function
                        | `Child (_, _, _, true) -> n + 2 | _ -> n + 1)
                      0 makers
                in
                let jm = if uses > 1 then Plan.Table (Plan.run inst jm) else jm in
                (match neg_preds with
                | [] -> []
                | ps -> [ Plan.Filter (Plan.Any ps, jm) ])
                @ List.map
                    (function
                      | `Jm -> jm
                      | `Child (vs, items, free, seeded) -> (
                          let seed =
                            if seeded then
                              Some (Plan.Distinct (Plan.Project (free, jm)))
                            else None
                          in
                          match compile_conj ?seed items with
                          | `Empty -> jm
                          | `Plan (child, child_cols) ->
                              require vs child_cols;
                              Plan.Antijoin (jm, Plan.Project (free, child))))
                    makers)
              guards
          in
          let plan =
            match table with
            | None -> filtered
            | Some tbl ->
                Plan.Table (subtract_refuted inst tbl ~ord:ord_col ~cols:all_cols bads)
          in
          `Plan (plan, all_cols)
    end
  in
  let evars, body = strip_exists f in
  match compile_conj (flatten_conj body) with
  | `Empty -> `Empty
  | `Plan (plan, all_cols) ->
      require evars all_cols;
      `Plan (plan, all_cols)

let plan_answers inst ~free f =
  match try Some (plan_of_formula inst f) with Unsupported_plan -> None with
  | None -> None
  | Some `Empty -> Some []
  | Some (`Plan (plan, all_cols)) ->
      if not (List.for_all (fun v -> List.mem v all_cols) free) then
        (* A free variable no atom generates: the interpreter enumerates
           the active domain for it — out of scope for the plan. *)
        None
      else
        (* Under an existential prefix the interpreter has no top-level
           atom generators: free variables range over the active domain
           (never NULL) and atoms check them by definite equality.  An
           unwrapped conjunction instead binds free variables straight
           from the scans, NULLs included.  A self-equality predicate —
           definitely true exactly on non-NULL values — reproduces the
           wrapped case on the scan-driven plan. *)
        let plan =
          match f with
          | Exists _ when free <> [] ->
              Plan.Filter
                ( Plan.All
                    (List.map
                       (fun v -> { Plan.op = Plan.Eq; left = Col v; right = Col v })
                       free),
                  plan )
          | _ -> plan
        in
        let table =
          Plan.run inst (Plan.Distinct (Plan.Project (free, plan)))
        in
        (* [Distinct] already returns unique rows sorted by
           [Value.compare] — the [Row_set.elements] order for
           equal-length rows — so no set rebuild is needed. *)
        let getters =
          Array.map Column.getter (Columnar.columns table)
        in
        let k = Array.length getters in
        let row i =
          let rec go j acc =
            if j < 0 then acc else go (j - 1) (getters.(j) i :: acc)
          in
          go (k - 1) []
        in
        Some (List.init (Columnar.length table) row)

let interpret inst ~free f =
  Obs.Counter.incr c_scan_row;
  let acc = ref Row_set.empty in
  sat (context inst) Binding.empty free (flatten_conj (nnf f)) (fun env ->
      let row =
        List.map
          (fun v ->
            match Binding.find env v with
            | Some value -> value
            | None -> assert false)
          free
      in
      acc := Row_set.add row !acc);
  Row_set.elements !acc

let answers inst ~free f =
  match plan_answers inst ~free f with
  | Some rows -> rows
  | None -> interpret inst ~free f

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "⊤"
  | False -> Format.pp_print_string ppf "⊥"
  | Atom a -> Atom.pp ppf a
  | Cmp c -> Cmp.pp ppf c
  | Not f -> Format.fprintf ppf "¬%a" pp_paren f
  | And (a, b) -> Format.fprintf ppf "%a ∧ %a" pp_paren a pp_paren b
  | Or (a, b) -> Format.fprintf ppf "%a ∨ %a" pp_paren a pp_paren b
  | Implies (a, b) -> Format.fprintf ppf "%a → %a" pp_paren a pp_paren b
  | Exists (vs, f) ->
      Format.fprintf ppf "∃%a %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_string)
        vs pp_paren f
  | Forall (vs, f) ->
      Format.fprintf ppf "∀%a %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_string)
        vs pp_paren f

and pp_paren ppf f =
  match f with
  | True | False | Atom _ | Cmp _ | Not _ -> pp ppf f
  | And _ | Or _ | Implies _ | Exists _ | Forall _ ->
      Format.fprintf ppf "(%a)" pp f
