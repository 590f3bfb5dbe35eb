module Fact = Relational.Fact
module Value = Relational.Value
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp

type rule = { head : int list; pos : int list; neg : int list }

let c_rules = Obs.Counter.make "asp.rules_grounded"
let c_atoms = Obs.Counter.make "asp.atoms"
type weak = { pos : int list; neg : int list; weight : int }

type t = {
  atoms : Fact.t array;
  index : (Fact.t, int) Hashtbl.t;
  natoms : int;
  rules : rule list;
  weaks : weak list;
}

module Env = Map.Make (String)

let term_value env = function
  | Term.Const v -> Some v
  | Term.Var x -> Env.find_opt x env

let match_structural env (a : Atom.t) (row : Value.t array) =
  if List.length a.args <> Array.length row then None
  else
    let rec go env i = function
      | [] -> Some env
      | t :: rest -> (
          let v = row.(i) in
          match t with
          | Term.Const c -> if Value.equal c v then go env (i + 1) rest else None
          | Term.Var x -> (
              match Env.find_opt x env with
              | Some bound ->
                  if Value.equal bound v then go env (i + 1) rest else None
              | None -> go (Env.add x v env) (i + 1) rest))
    in
    go env 0 a.args

let eval_cmp env (c : Cmp.t) =
  match term_value env c.left, term_value env c.right with
  | Some l, Some r -> (
      let cmp = Value.compare l r in
      match c.op with
      | Cmp.Eq -> cmp = 0
      | Cmp.Neq -> cmp <> 0
      | Cmp.Lt -> cmp < 0
      | Cmp.Le -> cmp <= 0
      | Cmp.Gt -> cmp > 0
      | Cmp.Ge -> cmp >= 0)
  | _ -> invalid_arg "Asp.Ground: unbound comparison variable"

let ground_atom env (a : Atom.t) =
  Fact.make a.rel
    (List.map
       (fun t ->
         match term_value env t with Some v -> v | None -> assert false)
       a.args)

type base = {
  mutable set : Fact.Set.t;
  by_rel : (string, Value.t array list ref) Hashtbl.t;
}

let base_add b (f : Fact.t) =
  if Fact.Set.mem f b.set then false
  else begin
    b.set <- Fact.Set.add f b.set;
    (match Hashtbl.find_opt b.by_rel f.rel with
    | Some rows -> rows := f.row :: !rows
    | None -> Hashtbl.add b.by_rel f.rel (ref [ f.row ]));
    true
  end

let rows_of b rel =
  match Hashtbl.find_opt b.by_rel rel with Some r -> !r | None -> []

(* Enumerate substitutions matching [atoms] against the base, with
   comparisons applied as soon as bound. *)
let substitutions base atoms comps k =
  let ready env c = List.for_all (fun v -> Env.mem v env) (Cmp.vars c) in
  let rec go env pending = function
    | [] -> if List.for_all (eval_cmp env) pending then k env
    | (a : Atom.t) :: rest ->
        List.iter
          (fun row ->
            Obs.Progress.tick ();
            match match_structural env a row with
            | None -> ()
            | Some env' ->
                let now, later = List.partition (ready env') pending in
                if List.for_all (eval_cmp env') now then go env' later rest)
          (rows_of base a.rel)
  in
  go Env.empty comps atoms

let derivable_base (program : Syntax.t) edb =
  let base = { set = Fact.Set.empty; by_rel = Hashtbl.create 32 } in
  List.iter (fun f -> ignore (base_add base f)) edb;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Syntax.rule) ->
        substitutions base r.pos r.comps (fun env ->
            List.iter
              (fun h ->
                if base_add base (ground_atom env h) then changed := true)
              r.head))
      program.rules
  done;
  base

let ground (program : Syntax.t) edb =
  let sp = Obs.Trace.start_phase "asp.ground" in
  let base = derivable_base program edb in
  let table = Hashtbl.create 256 in
  let atoms = ref [] and natoms = ref 0 in
  let id_of f =
    match Hashtbl.find_opt table f with
    | Some i -> i
    | None ->
        incr natoms;
        Hashtbl.add table f !natoms;
        atoms := f :: !atoms;
        !natoms
  in
  let rules = ref [] in
  let seen_rules = Hashtbl.create 256 in
  let add_rule gr =
    if not (Hashtbl.mem seen_rules gr) then begin
      Hashtbl.add seen_rules gr ();
      rules := gr :: !rules
    end
  in
  (* EDB facts are unconditionally true. *)
  List.iter (fun f -> add_rule { head = [ id_of f ]; pos = []; neg = [] }) edb;
  List.iter
    (fun (r : Syntax.rule) ->
      substitutions base r.pos r.comps (fun env ->
          let head = List.map (fun h -> id_of (ground_atom env h)) r.head in
          let pos = List.map (fun a -> id_of (ground_atom env a)) r.pos in
          (* A negative literal on an atom outside the base is trivially
             true and disappears. *)
          let neg =
            List.filter_map
              (fun a ->
                let f = ground_atom env a in
                if Fact.Set.mem f base.set then Some (id_of f) else None)
              r.neg
          in
          add_rule { head = List.sort_uniq compare head; pos; neg }))
    program.rules;
  let weaks = ref [] in
  List.iter
    (fun (w : Syntax.weak) ->
      substitutions base w.wpos w.wcomps (fun env ->
          let pos = List.map (fun a -> id_of (ground_atom env a)) w.wpos in
          let neg =
            List.filter_map
              (fun a ->
                let f = ground_atom env a in
                if Fact.Set.mem f base.set then Some (id_of f) else None)
              w.wneg
          in
          weaks := { pos; neg; weight = w.weight } :: !weaks))
    program.weaks;
  let atom_array = Array.make (!natoms + 1) (Fact.make "" []) in
  List.iter (fun f -> atom_array.(Hashtbl.find table f) <- f) !atoms;
  let nrules = List.length !rules in
  Obs.Counter.add c_rules nrules;
  Obs.Counter.add c_atoms !natoms;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.attr_int "atoms" !natoms;
    Obs.Trace.attr_int "rules" nrules
  end;
  Obs.Trace.finish sp;
  {
    atoms = atom_array;
    index = table;
    natoms = !natoms;
    rules = List.rev !rules;
    weaks = List.rev !weaks;
  }

let pp ppf t =
  let pp_ids sep ppf ids =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep)
      (fun ppf i -> Fact.pp ppf t.atoms.(i))
      ppf ids
  in
  List.iter
    (fun r ->
      (match r.head with
      | [] -> Format.pp_print_string ppf ":-"
      | hs -> pp_ids " | " ppf hs);
      if r.pos <> [] || r.neg <> [] then begin
        Format.pp_print_string ppf " :- ";
        pp_ids ", " ppf r.pos;
        List.iter (fun i -> Format.fprintf ppf ", not %a" Fact.pp t.atoms.(i)) r.neg
      end;
      Format.pp_print_cut ppf ())
    t.rules
