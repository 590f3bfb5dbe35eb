module Cq = Logic.Cq
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp
module VSet = Set.Make (String)

type attack = { source : int; target : int; strong : bool }
type cycle = Strong_pair of int * int | Weak of int list

type t = {
  attacks : attack list;
  cycle : cycle option;
  order : int list option;
}

let atom_rel (q : Cq.t) i = (List.nth q.body i).Atom.rel

let key_positions keys (a : Atom.t) =
  match List.assoc_opt a.Atom.rel keys with
  | Some ps -> ps
  | None ->
      (* No declared key: the relation is never repaired, the whole tuple
         acts as its own key (same convention as Classify.rewrite_keys). *)
      List.init (Atom.arity a) Fun.id

(* Distinct key variables of an atom, in key-position order (constants in
   key positions constrain matching but carry no dependency). *)
let key_var_list keys (a : Atom.t) =
  let ps = key_positions keys a in
  let terms =
    List.filteri (fun pos _ -> List.mem pos ps) a.Atom.args
  in
  Term.vars terms

let key_var_set keys a = VSet.of_list (key_var_list keys a)
let var_set (a : Atom.t) = VSet.of_list (Atom.vars a)

(* Fixpoint closure of [start] under the dependencies [(owner, lhs, rhs)].
   With [~why], records for each newly derived variable the dependency that
   introduced it, for saturation's proof paths. *)
let closure ?why start fds =
  let acc = ref start in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (owner, lhs, rhs) ->
        if VSet.subset lhs !acc && not (VSet.subset rhs !acc) then begin
          (match why with
          | Some tbl ->
              VSet.iter
                (fun v ->
                  if (not (VSet.mem v !acc)) && not (Hashtbl.mem tbl v) then
                    Hashtbl.replace tbl v (owner, lhs))
                rhs
          | None -> ());
          acc := VSet.union rhs !acc;
          changed := true
        end)
      fds
  done;
  !acc

(* The atoms whose dependencies fired, transitively, to derive [v] from
   [start] — in dependency order, deduplicated. *)
let support why start v =
  let rec go acc v =
    if VSet.mem v start then acc
    else
      match Hashtbl.find_opt why v with
      | None -> acc
      | Some (owner, lhs) ->
          if List.mem owner acc then acc
          else
            let acc = VSet.fold (fun u acc -> go acc u) lhs acc in
            if List.mem owner acc then acc else acc @ [ owner ]
  in
  go [] v

let analyze (q : Cq.t) ~keys =
  let atoms = Array.of_list q.body in
  let n = Array.length atoms in
  let free = VSet.of_list (Cq.head_vars q) in
  let fd_of i = (i, key_var_set keys atoms.(i), var_set atoms.(i)) in
  let all = List.init n Fun.id in
  let all_fds = List.map fd_of all in
  (* F^{+,q} relative to the [alive] subquery with [extra] variables (free
     variables, or variables of already-eliminated atoms) as constants. *)
  let closure_for i ~alive ~extra =
    let start = VSet.union (key_var_set keys atoms.(i)) extra in
    let fds = List.filter_map (fun j -> if j = i then None else Some (fd_of j)) alive in
    closure start fds
  in
  (* Atoms reachable from [i] through chains of variables outside
     [F^{+,q}] — the attack set of [i]. *)
  let attack_targets i ~alive ~extra =
    let cl = closure_for i ~alive ~extra in
    let out j = VSet.diff (var_set atoms.(j)) cl in
    let frontier = ref (out i) in
    let reached = ref [] in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun j ->
          if
            j <> i
            && (not (List.mem j !reached))
            && not (VSet.is_empty (VSet.inter (out j) !frontier))
          then begin
            reached := j :: !reached;
            frontier := VSet.union !frontier (out j);
            changed := true
          end)
        alive
    done;
    List.sort compare !reached
  in
  (* Weak attack: K(q) — all dependencies, F's own included, free
     variables as constants — implies key(F) -> key(G). *)
  let k_closure =
    let memo = Hashtbl.create 8 in
    fun i ->
      match Hashtbl.find_opt memo i with
      | Some cl -> cl
      | None ->
          let cl =
            closure (VSet.union (key_var_set keys atoms.(i)) free) all_fds
          in
          Hashtbl.add memo i cl;
          cl
  in
  let strong i j = not (VSet.subset (key_var_set keys atoms.(j)) (k_closure i)) in
  let attacks =
    List.concat_map
      (fun i ->
        List.map
          (fun j -> { source = i; target = j; strong = strong i j })
          (attack_targets i ~alive:all ~extra:free))
      all
  in
  let edge i j =
    List.exists (fun a -> a.source = i && a.target = j) attacks
  in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i < j && edge i j && edge j i then Some (i, j) else None)
          all)
      all
  in
  let cycle =
    match
      List.find_opt (fun (i, j) -> strong i j && strong j i) pairs
    with
    | Some (i, j) -> Some (Strong_pair (i, j))
    | None -> (
        match pairs with
        | (i, j) :: _ -> Some (Weak [ i; j ])
        | [] -> (
            (* By Koutris–Wijsen, a cyclic attack graph always has a
               2-cycle; a directed DFS keeps the claim independent of
               that lemma. *)
            let state = Hashtbl.create 8 in
            let found = ref None in
            let rec dfs path i =
              if !found = None then
                match Hashtbl.find_opt state i with
                | Some `Done -> ()
                | Some `Active ->
                    let rec upto acc = function
                      | [] -> acc
                      | x :: rest ->
                          if x = i then x :: acc else upto (x :: acc) rest
                    in
                    found := Some (Weak (upto [] path))
                | None ->
                    Hashtbl.replace state i `Active;
                    List.iter
                      (fun j -> if edge i j then dfs (i :: path) j)
                      all;
                    Hashtbl.replace state i `Done
            in
            List.iter (dfs []) all;
            !found))
  in
  let order =
    match cycle with
    | Some _ -> None
    | None ->
        let rec go alive freed acc =
          match alive with
          | [] -> Some (List.rev acc)
          | _ -> (
              let extra = VSet.union free freed in
              let attacked =
                List.concat_map
                  (fun j -> attack_targets j ~alive ~extra)
                  alive
              in
              match
                List.find_opt (fun i -> not (List.mem i attacked)) alive
              with
              | None -> None
              | Some i ->
                  go
                    (List.filter (fun j -> j <> i) alive)
                    (VSet.union freed (var_set atoms.(i)))
                    (i :: acc))
        in
        go all VSet.empty []
  in
  { attacks; cycle; order }

(* --- saturation ------------------------------------------------------- *)

type derived_fd = {
  atom : int;
  rel : string;
  key : string list;
  var : string;
  path : string list;
}

type saturation = {
  squery : Cq.t;
  skeys : (string * int list) list;
  rules : Datalog.Rule.t list;
  derived : derived_fd list;
}

let helper_rel rel var = Printf.sprintf "sat$%s$%s" rel var

let saturate (q : Cq.t) ~keys =
  let atoms = Array.of_list q.body in
  let n = Array.length atoms in
  let free = VSet.of_list (Cq.head_vars q) in
  let rel_of i = atoms.(i).Atom.rel in
  let derived =
    List.concat_map
      (fun i ->
        let kvars = key_var_list keys atoms.(i) in
        let start = VSet.union (VSet.of_list kvars) free in
        let fds =
          List.filter_map
            (fun j ->
              if j = i then None
              else Some (j, key_var_set keys atoms.(j), var_set atoms.(j)))
            (List.init n Fun.id)
        in
        let why = Hashtbl.create 8 in
        let cl = closure ~why start fds in
        Atom.vars atoms.(i)
        |> List.filter (fun y -> (not (VSet.mem y start)) && VSet.mem y cl)
        |> List.map (fun y ->
               {
                 atom = i;
                 rel = rel_of i;
                 key = kvars;
                 var = y;
                 path = List.map rel_of (support why start y);
               }))
      (List.init n Fun.id)
  in
  match derived with
  | [] -> None
  | _ ->
      let helper fd =
        let name = helper_rel fd.rel fd.var in
        let args = List.map Term.var (fd.key @ [ fd.var ]) in
        let atom = Atom.make name args in
        let rule = Datalog.Rule.make ~comps:q.comps atom q.body in
        let key = (name, List.init (List.length args) Fun.id) in
        (atom, rule, key)
      in
      let helpers = List.map helper derived in
      let squery =
        Cq.make ~name:q.name ~comps:q.comps q.head
          (q.body @ List.map (fun (a, _, _) -> a) helpers)
      in
      Some
        {
          squery;
          skeys = keys @ List.map (fun (_, _, k) -> k) helpers;
          rules = List.map (fun (_, r, _) -> r) helpers;
          derived;
        }

let describe_fd fd =
  Printf.sprintf "%s: key(%s) -> %s via %s" fd.rel
    (String.concat "," fd.key)
    fd.var
    (String.concat " -> " fd.path)

(* --- rewriting input -------------------------------------------------- *)

type rewriting_input = {
  query : Cq.t;
  keys : (string * int list) list;
  prefix : Datalog.Rule.t list;
  order : int list;
  fds : derived_fd list;
}

let rewriting_input ?graph (q : Cq.t) ~keys =
  let rels = List.map (fun (a : Atom.t) -> a.Atom.rel) q.body in
  let sjf =
    List.length rels = List.length (List.sort_uniq String.compare rels)
  in
  let bound = Cq.body_vars q in
  let safe =
    List.for_all
      (fun v -> List.mem v bound)
      (Cq.head_vars q @ List.concat_map Cmp.vars q.comps)
  in
  if q.body = [] || (not sjf) || not safe then None
  else
    let g = match graph with Some g -> g | None -> analyze q ~keys in
    match g.order with
    | None -> None
    | Some order -> (
        let unsaturated =
          { query = q; keys; prefix = []; order; fds = [] }
        in
        match saturate q ~keys with
        | None -> Some unsaturated
        | Some s -> (
            (* Helper atoms are inert (their variables co-occur in the
               saturated atom), so the graph stays acyclic; recompute the
               order defensively all the same. *)
            match (analyze s.squery ~keys:s.skeys).order with
            | Some order' ->
                Some
                  {
                    query = s.squery;
                    keys = s.skeys;
                    prefix = s.rules;
                    order = order';
                    fds = s.derived;
                  }
            | None -> Some unsaturated))
