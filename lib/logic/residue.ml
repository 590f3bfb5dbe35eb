let literal_formula = function
  | Clause.Pos a -> Formula.Atom a
  | Clause.Neg a -> Formula.Not (Formula.Atom a)
  | Clause.Builtin cmp -> Formula.Cmp cmp

let apply_subst_literal s = function
  | Clause.Pos a -> Clause.Pos (Subst.apply_atom s a)
  | Clause.Neg a -> Clause.Neg (Subst.apply_atom s a)
  | Clause.Builtin cmp -> Clause.Builtin (Subst.apply_cmp s cmp)

let of_clause ?(suffix = "'") (atom : Atom.t) clause =
  let clause = Clause.rename_apart ~suffix clause in
  let atom_vars = Atom.vars atom in
  let residue_for lit rest =
    match lit with
    | Clause.Pos _ | Clause.Builtin _ -> None
    | Clause.Neg b -> (
        (* Unify with the clause literal first so that Var–Var pairs bind
           the clause's (renamed-apart) variables to the atom's terms; the
           residue is then expressed over the query's own variables. *)
        match Unify.atoms b atom with
        | None -> None
        | Some theta ->
            (* Bindings the unifier imposes on the atom's own variables (a
               constant in the clause) become disequality literals of the
               residue: it is refuted only where the binding definitely
               holds, so a NULL in that position refutes nothing. *)
            let preconditions =
              List.filter_map
                (fun (x, t) ->
                  if List.mem x atom_vars && not (Term.equal (Term.Var x) t)
                  then Some (Formula.Cmp (Cmp.neq (Term.Var x) t))
                  else None)
                (Subst.to_list theta)
            in
            let rest = List.map (apply_subst_literal theta) rest in
            let body =
              Formula.disj (preconditions @ List.map literal_formula rest)
            in
            let extra =
              List.filter
                (fun v -> not (List.mem v atom_vars))
                (Formula.free_vars body)
            in
            (* The constructor, not [Formula.forall]: with no quantified
               variable the residue still reads two-valued. *)
            Some (Formula.Forall (extra, body)))
  in
  let rec each before = function
    | [] -> []
    | lit :: after -> (
        let rest = List.rev_append before after in
        match residue_for lit rest with
        | Some r -> r :: each (lit :: before) after
        | None -> each (lit :: before) after)
  in
  each [] clause.Clause.literals

let for_atom ?suffix atom clauses =
  List.concat_map (of_clause ?suffix atom) clauses
