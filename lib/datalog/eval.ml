module Fact = Relational.Fact
module Value = Relational.Value
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp

exception Unstratifiable

(* Seminaive-loop visibility: one [rounds] tick per delta iteration (the
   first naive pass included), and [facts] counts newly derived facts. *)
let c_rounds = Obs.Counter.make "datalog.seminaive.rounds"
let c_facts = Obs.Counter.make "datalog.seminaive.facts"

(* Datalog treats every value — including NULL — as a plain constant:
   matching and comparisons are structural, unlike SQL-side query
   evaluation.  (Repair programs that need SQL null behaviour encode it with
   explicit conditions, as in the paper.) *)

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
  | _ ->
      invalid_arg
        (Format.asprintf "Datalog.Eval: unbound variable in %a" Cmp.pp c)

type store = {
  mutable all : Fact.Set.t;
  by_rel : (string, Value.t array list ref) Hashtbl.t;
}

let store_create () = { all = Fact.Set.empty; by_rel = Hashtbl.create 32 }

let store_add st (f : Fact.t) =
  if Fact.Set.mem f st.all then false
  else begin
    st.all <- Fact.Set.add f st.all;
    (match Hashtbl.find_opt st.by_rel f.rel with
    | Some rows -> rows := f.row :: !rows
    | None -> Hashtbl.add st.by_rel f.rel (ref [ f.row ]));
    true
  end

let rows_of st rel =
  match Hashtbl.find_opt st.by_rel rel with Some r -> !r | None -> []

let ground_head env (h : Atom.t) =
  Fact.make h.rel
    (List.map
       (fun t ->
         match term_value env t with
         | Some v -> v
         | None -> assert false (* safety guarantees binding *))
       h.args)

(* All derivations of one rule where the atom at [delta_pos] matches a delta
   row and the others match the full store. *)
let derive st delta (r : Rule.t) ~delta_pos emit =
  let rec go env i atoms =
    match atoms with
    | [] ->
        let neg_ok =
          List.for_all
            (fun (a : Atom.t) ->
              not
                (List.exists
                   (fun row -> match_structural env a row <> None)
                   (rows_of st a.rel)))
            r.body_neg
        in
        if neg_ok && List.for_all (eval_cmp env) r.comps then
          emit (ground_head env r.head)
    | a :: rest ->
        let source = if i = delta_pos then rows_of delta a.Atom.rel else rows_of st a.Atom.rel in
        List.iter
          (fun row ->
            match match_structural env a row with
            | Some env' -> go env' (i + 1) rest
            | None -> ())
          source
  in
  go Env.empty 0 r.body_pos

let run program edb =
  match Program.stratify program with
  | None -> raise Unstratifiable
  | Some strata ->
      let st = store_create () in
      List.iter (fun f -> ignore (store_add st f)) edb;
      List.iter
        (fun stratum ->
          (* Facts of the stratum seed the first delta. *)
          let delta = ref (store_create ()) in
          List.iter
            (fun (r : Rule.t) ->
              if Rule.is_fact r then begin
                let f = Logic.Atom.to_fact r.head in
                if store_add st f then ignore (store_add !delta f)
              end)
            stratum;
          let first = ref true in
          let continue = ref true in
          while !continue do
            Obs.Counter.incr c_rounds;
            let next = store_create () in
            let emit f =
              if store_add st f then begin
                Obs.Counter.incr c_facts;
                ignore (store_add next f)
              end
            in
            List.iter
              (fun (r : Rule.t) ->
                if not (Rule.is_fact r) then
                  if !first then
                    (* First round: full naive pass. *)
                    derive st st r ~delta_pos:(-1) emit
                  else
                    List.iteri
                      (fun i _ -> derive st !delta r ~delta_pos:i emit)
                      r.body_pos)
              stratum;
            first := false;
            if Fact.Set.is_empty next.all then continue := false
            else delta := next
          done)
        strata;
      st.all

let run_instance program inst = run program (Relational.Instance.fact_list inst)

let query program edb pred =
  let facts = run program edb in
  Fact.Set.fold
    (fun (f : Fact.t) acc ->
      if String.equal f.rel pred then Array.to_list f.row :: acc else acc)
    facts []
  |> List.sort (List.compare Value.compare)
