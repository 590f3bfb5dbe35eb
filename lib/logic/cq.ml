module Plan = Relational.Plan
module Columnar = Relational.Columnar

type t = { name : string; head : Term.t list; body : Atom.t list; comps : Cmp.t list }

let make ?(name = "Q") ?(comps = []) head body = { name; head; body; comps }
let arity q = List.length q.head
let head_vars q = Term.vars q.head
let body_vars q = Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) q.body)

let existential_vars q =
  let hv = head_vars q in
  List.filter (fun v -> not (List.mem v hv)) (body_vars q)

let is_boolean q = q.head = []

module Row_set = Set.Make (struct
  type t = Relational.Value.t list

  let compare = List.compare Relational.Value.compare
end)

(* --- compiled columnar evaluation ----------------------------------- *)

(* Union-find canonicalization of Var = Var equality comparisons: merged
   variables share one plan column, turning the equality into a
   (NULL-rejecting) natural-join constraint.  An equality between
   already-merged variables (e.g. x = x) stays behind as a residual
   self-comparison, which rejects NULL exactly like [Binding.eval_cmp]
   would. *)
let rep_table comps =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when not (String.equal p x) ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
    | _ -> x
  in
  let residual =
    List.filter
      (fun (c : Cmp.t) ->
        match c.op, c.left, c.right with
        | Cmp.Eq, Term.Var x, Term.Var y ->
            let rx = find x and ry = find y in
            if String.equal rx ry then true
            else begin
              Hashtbl.replace parent rx ry;
              false
            end
        | _ -> true)
      comps
  in
  (find, residual)

let plan_op : Cmp.op -> Plan.op = function
  | Cmp.Eq -> Plan.Eq
  | Cmp.Neq -> Plan.Neq
  | Cmp.Lt -> Plan.Lt
  | Cmp.Le -> Plan.Le
  | Cmp.Gt -> Plan.Gt
  | Cmp.Ge -> Plan.Ge

(* Greedy connected join order: always joins against an input sharing a
   column when one exists, deferring cartesian products to the end. *)
let order_scans = function
  | [] -> invalid_arg "Cq.order_scans: no scans"
  | first :: rest ->
      let rec go plan vars pending =
        match pending with
        | [] -> plan
        | _ ->
            let shares (_, vs) = List.exists (fun v -> List.mem v vars) vs in
            let next, others =
              match List.partition shares pending with
              | n :: ns, os -> (n, ns @ os)
              | [], o :: os -> (o, os)
              | [], [] -> assert false
            in
            go (Plan.Join (plan, fst next)) (snd next @ vars) others
      in
      go (fst first) (snd first) rest

(* The one-row, zero-column table: what an atomless body ranges over
   before its (ground) comparisons filter it. *)
let unit_table = Columnar.make [||] [||] 1

let tid_col i = Printf.sprintf "#tid%d" i

let tid_columns table n =
  Array.init n (fun i ->
      match (Columnar.column table (tid_col i)).Relational.Column.data with
      | Relational.Column.Ints a -> a
      | _ -> assert false)

let compile_body ~tids atoms comps =
  let body_vars =
    Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) atoms)
  in
  List.iter
    (fun v ->
      if not (List.mem v body_vars) then
        invalid_arg
          (Printf.sprintf
             "Cq.compile_body: comparison variable %s occurs in no atom" v))
    (List.concat_map Cmp.vars comps);
  let find, residual = rep_table comps in
  let conv = function
    | Term.Const v -> Plan.Const v
    | Term.Var x -> Plan.Col (find x)
  in
  let preds =
    List.map
      (fun (c : Cmp.t) ->
        { Plan.op = plan_op c.op; left = conv c.left; right = conv c.right })
      residual
  in
  let scans =
    List.mapi
      (fun i (a : Atom.t) ->
        let args =
          List.map
            (function
              | Term.Const v -> Plan.Aconst v
              | Term.Var x -> Plan.Avar (find x))
            a.args
        in
        let tid = if tids then Some (tid_col i) else None in
        let scan = Plan.Scan { rel = a.rel; args; tid } in
        (scan, Plan.cols scan))
      atoms
  in
  let joined =
    if scans = [] then Plan.Table unit_table else order_scans scans
  in
  ((if preds = [] then joined else Plan.Filter (Plan.All preds, joined)), find)

(* The distinct representative columns of [vars], in first-occurrence
   order. *)
let rep_cols find vars =
  List.fold_left
    (fun acc x ->
      let r = find x in
      if List.mem r acc then acc else r :: acc)
    [] vars
  |> List.rev

let answers q inst =
  let plan, find = compile_body ~tids:false q.body q.comps in
  let table =
    Plan.run inst
      (Plan.Distinct (Plan.Project (rep_cols find (head_vars q), plan)))
  in
  let pos =
    List.map
      (function
        | Term.Const v -> `Const v
        | Term.Var x -> `Col (Columnar.col_index table (find x)))
      q.head
  in
  let rows =
    List.fold_left
      (fun acc row ->
        Row_set.add
          (List.map (function `Const v -> v | `Col i -> row.(i)) pos)
          acc)
      Row_set.empty (Columnar.rows table)
  in
  Row_set.elements rows

let bindings q inst =
  let plan, find = compile_body ~tids:false q.body q.comps in
  let vars = body_vars q in
  let table =
    Plan.run inst (Plan.Distinct (Plan.Project (rep_cols find vars, plan)))
  in
  let cols = List.map (fun v -> (v, Columnar.col_index table (find v))) vars in
  List.map
    (fun row ->
      List.fold_left
        (fun env (v, i) -> Binding.bind env v row.(i))
        Binding.empty cols)
    (Columnar.rows table)

let holds q inst =
  let plan, _ = compile_body ~tids:false q.body q.comps in
  Columnar.length (Plan.run inst (Plan.Project ([], plan))) > 0

let substitute s q =
  {
    q with
    head = List.map (Subst.apply_term s) q.head;
    body = List.map (Subst.apply_atom s) q.body;
    comps = List.map (Subst.apply_cmp s) q.comps;
  }

let pp ppf q =
  let pp_terms ppf =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      Term.pp ppf
  in
  Format.fprintf ppf "%s(%a) :- %a" q.name pp_terms q.head
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Atom.pp)
    q.body;
  if q.comps <> [] then
    Format.fprintf ppf ", %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Cmp.pp)
      q.comps
