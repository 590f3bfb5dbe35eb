(* One oracle differential for every conjunctive-body consumer: the
   compiled columnar body behind [Cq.answers]/[holds]/[bindings],
   violation search, conflict-graph edges, CAvSAT's witness sets and
   incremental conflict maintenance are each checked against a naive nested-loop evaluator
   built on [Ra] (product of the atoms' relations, then selection).
   Random bodies mix NULLs, constants (NULL included), repeated
   variables, comparisons and self-joins. *)

module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Fact = Relational.Fact
module Tid = Relational.Tid
module Tvl = Relational.Tvl
module Ic = Constraints.Ic
open Logic

(* --- the oracle ------------------------------------------------------ *)

(* Every match of a body: the matched tids in atom order and the binding
   of the body variables.  One [Ra] relation per atom (its tid, then its
   attributes), their cartesian product, and a selection that is
   definitely true when constants match, repeated variables are
   SQL-equal and every comparison holds. *)
let matches inst (atoms : Atom.t list) comps =
  let atom_rel i (a : Atom.t) =
    {
      Ra.cols =
        Array.init
          (1 + List.length a.args)
          (fun j ->
            if j = 0 then Printf.sprintf "%d#tid" i
            else Printf.sprintf "%d.%d" i j);
      rows =
        List.map
          (fun (tid, row) -> Array.append [| Value.int (Tid.to_int tid) |] row)
          (Instance.tuples inst ~rel:a.rel);
    }
  in
  let product =
    List.fold_left Ra.product
      { Ra.cols = [||]; rows = [ [||] ] }
      (List.mapi atom_rel atoms)
  in
  (* Walk the atoms' argument slots of one product row, binding each
     variable at its first occurrence. *)
  let bind row =
    let rec atom_at env off = function
      | [] -> Some env
      | (a : Atom.t) :: rest ->
          let rec arg env j = function
            | [] -> atom_at env (off + 1 + List.length a.args) rest
            | t :: ts -> (
                let v = row.(off + j) in
                let same u = Tvl.to_bool (Value.sql_eq u v) in
                match t with
                | Term.Const c -> if same c then arg env (j + 1) ts else None
                | Term.Var x -> (
                    match Binding.find env x with
                    | Some u -> if same u then arg env (j + 1) ts else None
                    | None -> arg (Binding.bind env x v) (j + 1) ts))
          in
          arg env 1 a.args
    in
    atom_at Binding.empty 0 atoms
  in
  let selected =
    Ra.select
      (fun _ row ->
        match bind row with
        | Some env ->
            Tvl.of_bool
              (List.for_all (fun c -> Binding.eval_cmp env c = Tvl.True) comps)
        | None -> Tvl.False)
      product
  in
  List.map
    (fun row ->
      let _, tids =
        List.fold_left
          (fun (off, acc) (a : Atom.t) ->
            let tid =
              match row.(off) with Value.Int t -> Tid.of_int t | _ -> assert false
            in
            (off + 1 + List.length a.args, tid :: acc))
          (0, []) atoms
      in
      (List.rev tids, Option.get (bind row)))
    selected.Ra.rows

let head_row env (q : Cq.t) =
  List.map
    (function
      | Term.Const v -> v | Term.Var x -> Option.get (Binding.find env x))
    q.head

let distinct cmp xs = List.sort_uniq cmp xs
let rows_cmp = List.compare Value.compare

let oracle_answers q inst =
  distinct rows_cmp
    (List.map (fun (_, env) -> head_row env q) (matches inst q.Cq.body q.Cq.comps))

let binding_repr env = Binding.to_list env

let oracle_bindings (q : Cq.t) inst =
  distinct compare
    (List.map (fun (_, env) -> binding_repr env) (matches inst q.body q.comps))

let tid_set tids = List.fold_left (fun s t -> Tid.Set.add t s) Tid.Set.empty tids

module Tidsets = Set.Make (Tid.Set)

let oracle_violation_sets inst (d : Ic.denial) =
  List.map (fun (tids, _) -> tid_set tids) (matches inst d.atoms d.comps)

(* --- random instances and bodies ------------------------------------ *)

let schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ]

(* Values 0..3 force join collisions; 4 encodes NULL. *)
let value_of n = if n >= 4 then Value.Null else Value.int n

type db_spec = (int * int) list * (int * int) list

let instance_of ((rs, ss) : db_spec) =
  Instance.of_rows schema
    [
      ("R", List.map (fun (a, b) -> [ value_of a; value_of b ]) rs);
      ("S", List.map (fun (b, c) -> [ value_of b; value_of c ]) ss);
    ]

let gen_db : db_spec QCheck.Gen.t =
  QCheck.Gen.(
    pair
      (list_size (int_range 0 7) (pair (int_range 0 4) (int_range 0 4)))
      (list_size (int_range 0 7) (pair (int_range 0 4) (int_range 0 4))))

let print_db ((rs, ss) : db_spec) =
  let row (a, b) = Printf.sprintf "%d,%d" a b in
  Printf.sprintf "R=%s S=%s"
    (String.concat ";" (List.map row rs))
    (String.concat ";" (List.map row ss))

let var_names = [ "x"; "y"; "z"; "w" ]

let gen_term =
  QCheck.Gen.(
    frequency
      [
        (6, map Term.var (oneofl var_names));
        (2, map (fun n -> Term.const (value_of n)) (int_range 0 4));
      ])

let gen_atom =
  QCheck.Gen.(
    map3
      (fun rel t1 t2 -> Atom.make rel [ t1; t2 ])
      (oneofl [ "R"; "S" ]) gen_term gen_term)

let gen_op = QCheck.Gen.oneofl Cmp.[ Eq; Neq; Lt; Le; Gt; Ge ]

(* Comparisons only over variables the atoms bind: anything else is an
   unsafe body, rejected before it reaches an executor. *)
let gen_body ~min_atoms =
  QCheck.Gen.(
    int_range min_atoms 3 >>= fun n ->
    list_repeat n gen_atom >>= fun atoms ->
    let vars = Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) atoms) in
    let side =
      if vars = [] then map (fun n -> Term.const (value_of n)) (int_range 0 4)
      else
        frequency
          [
            (3, map Term.var (oneofl vars));
            (1, map (fun n -> Term.const (value_of n)) (int_range 0 3));
          ]
    in
    int_range 0 2 >>= fun k ->
    list_repeat k (map3 Cmp.make gen_op side side) >|= fun comps -> (atoms, comps))

let gen_query =
  QCheck.Gen.(
    gen_body ~min_atoms:0 >>= fun (atoms, comps) ->
    let vars = Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) atoms) in
    list_repeat (List.length vars) bool >>= fun keep ->
    bool >|= fun with_const ->
    let head =
      List.filter_map (fun (v, k) -> if k then Some (Term.var v) else None)
        (List.combine vars keep)
      @ if with_const then [ Term.int 7 ] else []
    in
    Cq.make ~name:"q" ~comps head atoms)

let print_query q = Format.asprintf "%a" Cq.pp q

let arb_query_db =
  QCheck.make
    QCheck.Gen.(pair gen_query gen_db)
    ~print:(fun (q, db) -> print_query q ^ " on " ^ print_db db)

(* The shapes the suites comparing the compiled and row evaluators used
   to pin, checked on every case besides the random query. *)
let fixed_queries =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  [
    Cq.make ~name:"join" [ x; z ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ];
    Cq.make ~name:"const" [ y ] [ Atom.make "R" [ Term.const (Value.int 1); y ] ];
    Cq.make ~name:"selfjoin" [ x ] [ Atom.make "R" [ x; x ] ];
    Cq.make ~name:"triangle" [ x ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ]; Atom.make "R" [ z; x ] ];
    Cq.make ~name:"lt" ~comps:[ Cmp.make Cmp.Lt x y ] [ x; y ] [ Atom.make "R" [ x; y ] ];
    Cq.make ~name:"vareq" ~comps:[ Cmp.eq y z ] [ x; z ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; Term.var "w" ] ];
    Cq.make ~name:"selfeq" ~comps:[ Cmp.eq x x ] [ x ] [ Atom.make "R" [ x; y ] ];
    Cq.make ~name:"neq" ~comps:[ Cmp.neq x (Term.const (Value.int 2)) ] [ x ]
      [ Atom.make "R" [ x; y ] ];
    Cq.make ~name:"bool" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ];
    Cq.make ~name:"product" [ x; z ] [ Atom.make "R" [ x; x ]; Atom.make "S" [ z; z ] ];
  ]

(* --- the differentials ----------------------------------------------- *)

let prop_cq =
  QCheck.Test.make ~count:500 ~name:"Cq.answers/holds/bindings = naive oracle"
    arb_query_db (fun (q, db_spec) ->
      let db = instance_of db_spec in
      List.for_all
        (fun q ->
          let expected = oracle_answers q db in
          Cq.answers q db = expected
          && Cq.holds q db = (expected <> [])
          && distinct compare (List.map binding_repr (Cq.bindings q db))
             = oracle_bindings q db
          && List.length (Cq.bindings q db) = List.length (oracle_bindings q db))
        (q :: fixed_queries))

(* What [Violation.of_denial] promises: one witness per distinct tid set,
   represented by the match with the greatest tid vector, listed in
   descending order of those representatives. *)
let expected_witnesses db (d : Ic.denial) =
  let ms =
    List.sort
      (fun (t1, _) (t2, _) -> List.compare Tid.compare t2 t1)
      (matches db d.atoms d.comps)
  in
  let _, reps =
    List.fold_left
      (fun (seen, acc) (tids, env) ->
        let s = tid_set tids in
        if Tidsets.mem s seen then (seen, acc)
        else (Tidsets.add s seen, (tids, env) :: acc))
      (Tidsets.empty, []) ms
  in
  List.map
    (fun (tids, env) ->
      ( Tid.Set.elements (tid_set tids),
        binding_repr env,
        List.map2 (fun t a -> (t, Format.asprintf "%a" Atom.pp a)) tids d.atoms ))
    (List.rev reps)

let witness_repr (w : Constraints.Violation.witness) =
  ( Tid.Set.elements w.tids,
    binding_repr w.binding,
    List.map (fun (tid, a) -> (tid, Format.asprintf "%a" Atom.pp a)) w.matched )

let arb_denial_db =
  QCheck.make
    QCheck.Gen.(pair (gen_body ~min_atoms:1) gen_db)
    ~print:(fun ((atoms, comps), db) ->
      print_query (Cq.make ~name:"d" ~comps [] atoms) ^ " on " ^ print_db db)

let prop_violation =
  QCheck.Test.make ~count:500 ~name:"Violation.of_denial = naive oracle" arb_denial_db
    (fun ((atoms, comps), db_spec) ->
      let db = instance_of db_spec in
      let key_r = Option.get (Ic.to_denials schema (Ic.key ~rel:"R" [ 0 ])) in
      let fd_s =
        Option.get (Ic.to_denials schema (Ic.fd ~rel:"S" ~lhs:[ 1 ] ~rhs:[ 0 ]))
      in
      List.for_all
        (fun (d : Ic.denial) ->
          List.map witness_repr (Constraints.Violation.of_denial db d)
          = expected_witnesses db d)
        ({ Ic.name = "d"; atoms; comps } :: key_r @ fd_s))

(* CAvSAT's witnesses: per oracle answer row, the distinct tid sets of
   the matches producing it, each an ascending duplicate-free array, in
   [Set.compare] order — compared element by element, so the array
   form's sortedness and order are checked along with its content. *)
let witness_ok db (q : Cq.t) =
  let expected =
    List.map
      (fun row ->
        ( row,
          List.map Tid.Set.elements
            (Tidsets.elements
               (Tidsets.of_list
                  (List.filter_map
                     (fun (tids, env) ->
                       if head_row env q = row then Some (tid_set tids) else None)
                     (matches db q.body q.comps)))) ))
      (oracle_answers q db)
  in
  List.map
    (fun (row, ws) -> (row, List.map Array.to_list ws))
    (let w, cands = Cavsat.Witness.answers_with_witnesses q db in
     List.map
       (fun (c : Cavsat.Witness.candidate) -> (c.row, Cavsat.Witness.sets w c))
       cands)
  = expected

(* Bodies that steer the witness arena down each of its paths on most
   instances: a join whose rows arrive in set order (copied as they
   come), a symmetric self-join matching each pair twice and a loop
   once (repeated sets, rows out of order, sets narrower than the body:
   the permutation path with offsets), a three-atom chain, and atomless
   bodies (k = 0: one empty set). *)
let arena_queries =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z" in
  [
    Cq.make ~name:"in_order" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ];
    Cq.make ~name:"sym" [] [ Atom.make "R" [ x; y ]; Atom.make "R" [ y; x ] ];
    Cq.make ~name:"sym_head" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "R" [ y; x ] ];
    Cq.make ~name:"chain3" []
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ]; Atom.make "R" [ z; Term.var "w" ] ];
    Cq.make ~name:"atomless" [ Term.int 7 ] [];
    Cq.make ~name:"atomless_cmp"
      ~comps:[ Cmp.make Cmp.Lt (Term.int 1) (Term.int 2) ]
      [] [];
  ]

let prop_witness =
  QCheck.Test.make ~count:500 ~name:"Cavsat witness sets = naive oracle" arb_query_db
    (fun (q, db_spec) ->
      let db = instance_of db_spec in
      List.for_all (witness_ok db) ((q :: fixed_queries) @ arena_queries))

(* The path the arena builder takes on [q], read off the same compiled
   body: rows already in (answer, tid set) order are copied as they
   come ([`In_order]), others go through the sorted permutation;
   [`Narrow] when some match has fewer distinct tids than atoms (the
   arena needs offsets). *)
let arena_path db (q : Cq.t) =
  let plan, find = Cq.compile_body ~tids:true q.body q.comps in
  let k = List.length q.body in
  let vars = Cq.head_vars q in
  let table =
    Relational.Plan.run db
      (Relational.Plan.Project (List.init k Cq.tid_col @ Cq.rep_cols find vars, plan))
  in
  let n = Relational.Columnar.length table in
  let cols = Cq.tid_columns table k in
  let head =
    List.map
      (fun x -> Relational.Column.getter (Relational.Columnar.column table (find x)))
      vars
  in
  let key r = (List.map (fun get -> get r) head, Tid.Sorted.of_columns cols r) in
  let compare (h1, w1) (h2, w2) =
    match List.compare Value.compare h1 h2 with
    | 0 -> Tid.Sorted.compare w1 w2
    | c -> c
  in
  let rec in_order r = r >= n || (compare (key (r - 1)) (key r) <= 0 && in_order (r + 1)) in
  let narrow = List.exists (fun r -> Array.length (snd (key r)) < k) (List.init n Fun.id) in
  if n = 0 then [ `Empty ]
  else
    (if k = 0 then `Atomless else if in_order 1 then `In_order else `Permuted)
    :: (if narrow then [ `Narrow ] else [])

(* The property above draws every arena path: over a seeded run of its
   generator, each path is taken, and the witness sets agree with the
   oracle on each. *)
let test_witness_paths () =
  let rand = Random.State.make [| 25 |] in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    let q, spec = QCheck.Gen.generate1 ~rand (QCheck.Gen.pair gen_query gen_db) in
    let db = instance_of spec in
    List.iter
      (fun (q : Cq.t) ->
        List.iter (fun p -> Hashtbl.replace seen p ()) (arena_path db q);
        if not (witness_ok db q) then
          Alcotest.failf "witness sets differ from the oracle: %s on %s"
            (print_query q) (print_db spec))
      ((q :: fixed_queries) @ arena_queries)
  done;
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " drawn") true (Hashtbl.mem seen p))
    [
      ("rows in order", `In_order);
      ("rows permuted", `Permuted);
      ("atomless body", `Atomless);
      ("sets narrower than the body", `Narrow);
    ]

(* Beyond the binary R/S schema: a ternary T whose cells mix 0, 2, NULL
   and three spellings of one — [Int 1], [Real 1.] and [Str "1"], which
   never equal each other — under a two-column key, an FD with an empty
   lhs (every pair of tuples is one group) and an FD whose rhs overlaps
   its lhs (never violated at the shared position). *)
let wide_schema =
  Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "a"; "b"; "c" ]) ]

let t_value = function
  | 0 -> Value.int 0
  | 1 -> Value.int 1
  | 2 -> Value.Real 1.
  | 3 -> Value.Str "1"
  | 4 -> Value.int 2
  | _ -> Value.Null

let gen_wide_db =
  QCheck.Gen.(pair gen_db (list_size (int_range 0 8) (list_repeat 3 (int_range 0 5))))

let print_wide_db (db, ts) =
  print_db db ^ " T="
  ^ String.concat ";"
      (List.map
         (fun r -> String.concat "," (List.map (fun n -> Value.to_string (t_value n)) r))
         ts)

let wide_instance_of ((rs, ss), ts) =
  Instance.of_rows wide_schema
    [
      ("R", List.map (fun (a, b) -> [ value_of a; value_of b ]) rs);
      ("S", List.map (fun (b, c) -> [ value_of b; value_of c ]) ss);
      ("T", List.map (List.map t_value) ts);
    ]

let arb_wide_case =
  QCheck.make
    QCheck.Gen.(pair (gen_body ~min_atoms:0) gen_wide_db)
    ~print:(fun ((atoms, comps), db) ->
      print_query (Cq.make ~name:"d" ~comps [] atoms) ^ " on " ^ print_wide_db db)

let key_fd_ics =
  [
    Ic.key ~rel:"R" [ 0 ];
    Ic.fd ~rel:"S" ~lhs:[ 1 ] ~rhs:[ 0 ];
    Ic.key ~rel:"T" [ 0; 1 ];
    Ic.fd ~rel:"T" ~lhs:[] ~rhs:[ 2 ];
    Ic.fd ~rel:"T" ~lhs:[ 0; 2 ] ~rhs:[ 2; 1 ];
  ]

(* The conflict hypergraph's edges are the distinct tid sets of every
   denial's oracle matches, in [Set.compare] order (the order the SAT
   theory numbers its variables by), and its conflicting tuples their
   union.  Atomless denials are included: one violated by its ground
   comparisons is the empty edge.  Key and FD edges come from grouping,
   the random denial's from its compiled body; the oracle runs every
   constraint's denials as nested loops. *)
let prop_conflict_graph =
  QCheck.Test.make ~count:500 ~name:"Conflict_graph.build edges = naive oracle"
    arb_wide_case
    (fun ((atoms, comps), db_spec) ->
      let db = wide_instance_of db_spec in
      let ics = Ic.denial ~name:"d" ~comps atoms :: key_fd_ics in
      let expected =
        Tidsets.elements
          (Tidsets.of_list
             (List.concat_map
                (fun ic ->
                  List.concat_map (oracle_violation_sets db)
                    (Option.get (Ic.to_denials wide_schema ic)))
                ics))
      in
      let g = Constraints.Conflict_graph.build db wide_schema ics in
      List.map Tid.Set.elements g.edges = List.map Tid.Set.elements expected
      && Tid.Set.elements (Constraints.Conflict_graph.conflicting_tids g)
         = Tid.Set.elements (List.fold_left Tid.Set.union Tid.Set.empty expected))

(* [Violation.count] is the number of witnesses [Violation.all] lists,
   for every constraint class at once: keys and FDs (grouping kernel),
   CFDs with a wildcard and with a constant rhs, a random denial, and
   INDs (one into a relation of another arity). *)
let prop_count =
  QCheck.Test.make ~count:500 ~name:"Violation.count = length of Violation.all"
    arb_wide_case
    (fun ((atoms, comps), db_spec) ->
      let db = wide_instance_of db_spec in
      let ics =
        Ic.denial ~name:"d" ~comps atoms
        :: Ic.cfd ~rel:"T" ~lhs:[ 0 ] ~rhs:[ 2 ] ~pat:[ (0, Some (Value.int 1)); (2, None) ]
        :: Ic.cfd ~rel:"T" ~lhs:[ 1 ] ~rhs:[ 0 ] ~pat:[ (1, None); (0, Some (Value.int 0)) ]
        :: Ic.ind ~sub:("R", [ 1 ]) ~sup:("S", [ 0 ])
        :: Ic.ind ~sub:("T", [ 0; 1 ]) ~sup:("R", [ 0; 1 ])
        :: key_fd_ics
      in
      List.for_all
        (fun ic ->
          Constraints.Violation.count db wide_schema [ ic ]
          = List.length (Constraints.Violation.all db wide_schema [ ic ]))
        ics
      && Constraints.Violation.count db wide_schema ics
         = List.length (Constraints.Violation.all db wide_schema ics))

(* [Violation.fd_conflicts] on relations too large and too unordered
   for its one-pass grouping check: rows in random LOAD order, lhs
   values from [groups] keys [stride] apart, so the codes' span takes one
   to four radix passes (NULL-free int cells are their own codes; a NULL
   in a third of the cases switches the column to dictionary codes).
   The emitted pairs, in order, are those of the oracle: the rows with
   no NULL lhs cell stably sorted by their lhs codes, each group's pairs
   in tid order, a pair emitted when both rhs cells are non-NULL and
   differ. *)
let prop_fd_grouping =
  let schema = Schema.of_list [ ("T", [ "a"; "b"; "c" ]) ] in
  QCheck.Test.make ~count:60 ~name:"fd_conflicts on unordered rows = stable-sort oracle"
    QCheck.(
      quad (int_range 2 1200) (oneofl [ 3; 300 ]) (oneofl [ 1; 257; 65_537 ]) int)
    (fun (n, groups, stride, seed) ->
      let rand = Random.State.make [| seed |] in
      let nulls = seed mod 3 = 0 in
      let cell ?(stride = 1) span =
        if nulls && Random.State.int rand 20 = 0 then Value.Null
        else Value.int (stride * Random.State.int rand span)
      in
      let rows = List.init n (fun _ -> [ cell ~stride groups; cell 3; cell 3 ]) in
      let db = Instance.of_rows schema [ ("T", rows) ] in
      let view = Instance.columnar db ~rel:"T" in
      let columns = Relational.Columnar.columns view in
      let tid i = Relational.Column.get columns.(0) i in
      let codes = Array.init 3 (fun p -> Relational.Column.eq_codes columns.(p + 1)) in
      let codes p = codes.(p) in
      let null p i = Relational.Column.is_null columns.(p + 1) i in
      let emitted fd =
        let acc = ref [] in
        Constraints.Violation.fd_conflicts db fd (fun lo hi k ->
            acc := (Tid.to_int lo, Tid.to_int hi, k) :: !acc);
        List.rev !acc
      in
      let expected (fd : Ic.fd) =
        let key i = List.map (fun p -> (codes p).(i)) fd.lhs in
        let rows =
          List.stable_sort
            (fun i j -> compare (key i) (key j))
            (List.filter
               (fun i -> not (List.exists (fun p -> null p i) fd.lhs))
               (List.init (Relational.Columnar.length view) Fun.id))
        in
        let rec groups = function
          | [] -> []
          | i :: _ as l ->
              let g, rest = List.partition (fun j -> key j = key i) l in
              g :: groups rest
        in
        List.concat_map
          (fun g ->
            List.concat_map
              (fun (a, i) ->
                List.filter_map
                  (fun (b, j) ->
                    let k =
                      List.length
                        (List.filter
                           (fun p -> (not (null p i || null p j)) && (codes p).(i) <> (codes p).(j))
                           fd.rhs)
                    in
                    if b > a && k > 0 then
                      match (tid i, tid j) with
                      | Value.Int ti, Value.Int tj -> Some (ti, tj, k)
                      | _ -> None
                    else None)
                  (List.mapi (fun b j -> (b, j)) g))
              (List.mapi (fun a i -> (a, i)) g))
          (groups rows)
      in
      List.for_all
        (fun (fd : Ic.fd) -> emitted fd = expected fd)
        [
          { Ic.rel = "T"; lhs = [ 0 ]; rhs = [ 1; 2 ] };
          { Ic.rel = "T"; lhs = [ 0; 1 ]; rhs = [ 2 ] };
        ])

(* Incremental maintenance: after a run of inserts and deletes the
   maintained hyperedges are exactly the violation tid sets of the
   constraints' denials on the final instance. *)
type update = Ins of string * int * int | Del of int

let arb_updates =
  QCheck.make
    QCheck.Gen.(
      triple (gen_body ~min_atoms:1) gen_db
        (list_size (int_range 0 10)
           (frequency
              [
                ( 3,
                  map3 (fun r a b -> Ins (r, a, b)) (oneofl [ "R"; "S" ]) (int_range 0 4)
                    (int_range 0 4) );
                (1, map (fun i -> Del i) (int_range 0 20));
              ])))
    ~print:(fun ((atoms, comps), db, ups) ->
      let pp = function
        | Ins (r, a, b) -> Printf.sprintf "+%s(%d,%d)" r a b
        | Del i -> Printf.sprintf "-%d" i
      in
      print_query (Cq.make ~name:"d" ~comps [] atoms)
      ^ " on " ^ print_db db ^ " then "
      ^ String.concat " " (List.map pp ups))

let prop_incremental =
  QCheck.Test.make ~count:300 ~name:"Incremental edges after updates = naive oracle"
    arb_updates (fun ((atoms, comps), db_spec, ups) ->
      let ics =
        [
          Ic.key ~rel:"R" [ 0 ];
          Ic.fd ~rel:"S" ~lhs:[ 1 ] ~rhs:[ 0 ];
          Ic.denial ~name:"d" ~comps atoms;
        ]
      in
      let apply t = function
        | Ins (rel, a, b) ->
            fst (Repairs.Incremental.insert t (Fact.make rel [ value_of a; value_of b ]))
        | Del i -> (
            match Tid.Set.elements (Instance.tids (Repairs.Incremental.instance t)) with
            | [] -> t
            | ts -> Repairs.Incremental.delete t (List.nth ts (i mod List.length ts)))
      in
      let t =
        List.fold_left apply
          (Repairs.Incremental.create (instance_of db_spec) schema ics)
          ups
      in
      let db = Repairs.Incremental.instance t in
      let expected =
        Tidsets.of_list
          (List.concat_map
                (fun ic ->
                  List.concat_map (oracle_violation_sets db)
                    (Option.get (Ic.to_denials schema ic)))
                ics)
      in
      Tidsets.equal
        (Tidsets.of_list (Repairs.Incremental.graph t).Constraints.Conflict_graph.edges)
        expected)

(* CAvSAT's repair theory: [Cavsat.Theory.build], straight from the
   sorted edge arrays, against [Theory_oracle], the build through the
   conflict graph it replaced.  The constraints mix a random denial
   (atomless ones included: violated, they are the empty edge and
   [no_repairs]; self-joins like R(x,x) give singleton edges) with a
   random subset of a key, an FD, a three-atom chain (edges of three
   tuples, so aux variables), a self-violation and an always-violated
   denial, over instances with NULLs.  Equal variables, equal clause
   counts, and equal [solve] answers — models included — under rounds
   of random assumption literals; every round of both runs on one
   solver, so a refutation either retains must be retained by the other
   too. *)
let pool =
  let x = Term.var "x" and y = Term.var "y" and z = Term.var "z"
  and w = Term.var "w" in
  [
    Ic.key ~rel:"R" [ 0 ];
    Ic.fd ~rel:"S" ~lhs:[ 1 ] ~rhs:[ 0 ];
    Ic.denial ~name:"chain"
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ]; Atom.make "S" [ z; w ] ];
    Ic.denial ~name:"loop" [ Atom.make "R" [ x; x ] ];
  ]

let arb_theory_case =
  QCheck.make
    QCheck.Gen.(
      quad (gen_body ~min_atoms:0) gen_db
        (pair (list_repeat (List.length pool) bool) (int_range 0 7))
        (list_size (int_range 1 6)
           (list_size (int_range 0 3) (int_range (-1000) 1000))))
    ~print:(fun ((atoms, comps), db, (mask, never), rounds) ->
      Printf.sprintf "%s on %s, pool mask %s%s, assumptions %s"
        (print_query (Cq.make ~name:"d" ~comps [] atoms))
        (print_db db)
        (String.concat "" (List.map (fun b -> if b then "1" else "0") mask))
        (if never = 0 then " + never" else "")
        (String.concat " | "
           (List.map
              (fun r -> String.concat "," (List.map string_of_int r))
              rounds)))

let prop_theory =
  QCheck.Test.make ~count:500 ~name:"Cavsat.Theory.build = conflict-graph oracle"
    arb_theory_case (fun ((atoms, comps), db_spec, (mask, never), rounds) ->
      let db = instance_of db_spec in
      let ics =
        (Ic.denial ~name:"d" ~comps atoms
        :: List.filteri (fun i _ -> List.nth mask i) pool)
        @ if never = 0 then [ Ic.denial ~name:"never" [] ] else []
      in
      let t = Cavsat.Theory.build db schema ics in
      let o = Theory_oracle.build db schema ics in
      let max_tid =
        Option.fold ~none:0 ~some:Tid.to_int
          (Tid.Set.max_elt_opt (Instance.tids db))
      in
      let nvars = t.base.vars in
      let lit i = if i < 0 then -(1 + (-i mod nvars)) else 1 + (i mod nvars) in
      t.no_repairs = o.no_repairs
      && t.base = o.base
      && List.for_all
           (fun i ->
             Cavsat.Theory.var_for t (Tid.of_int i)
             = Theory_oracle.var_for o (Tid.of_int i))
           (List.init (max_tid + 3) Fun.id)
      && List.for_all
           (fun round ->
             let assumptions = if nvars = 0 then [] else List.map lit round in
             Sat.Dpll.solve ~assumptions t.solver
             = Sat.Dpll.solve ~assumptions o.solver
             && Sat.Dpll.nclauses t.solver = Sat.Dpll.nclauses o.solver)
           rounds)

let theory_ics ((atoms, comps), (mask, never)) =
  (Ic.denial ~name:"d" ~comps atoms
  :: List.filteri (fun i _ -> List.nth mask i) pool)
  @ if never = 0 then [ Ic.denial ~name:"never" [] ] else []

(* [Conflict_graph.edges_with]: for every tuple (and one absent tid),
   exactly the edges of [sorted_edges] holding it, in their order. *)
let prop_edges_with =
  QCheck.Test.make ~count:300 ~name:"Conflict_graph.edges_with = filtered sorted_edges"
    arb_theory_case (fun (body, db_spec, pool_mask, _) ->
      let db = instance_of db_spec in
      let ics = theory_ics (body, pool_mask) in
      let all = Constraints.Conflict_graph.sorted_edges db schema ics in
      let tids = Tid.Set.elements (Instance.tids db) in
      List.for_all
        (fun tid ->
          Constraints.Conflict_graph.edges_with db schema ics tid
          = List.filter (Array.mem tid) all)
        (Tid.of_int (List.length tids + 100) :: tids))

(* Add/delete histories with patch points.  [Write] is one update of
   [arb_updates]; [Read] patches the theory over the net delta since the
   previous read, as the first SAT read after writes does. *)
type step = Write of update | Read

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 1 14)
      (frequency
         [
           ( 3,
             map3
               (fun r a b -> Write (Ins (r, a, b)))
               (oneofl [ "R"; "S" ]) (int_range 0 4) (int_range 0 4) );
           (2, map (fun i -> Write (Del i)) (int_range 0 20));
           (2, return Read);
         ]))

let print_steps steps =
  String.concat " "
    (List.map
       (function
         | Write (Ins (r, a, b)) -> Printf.sprintf "+%s(%d,%d)" r a b
         | Write (Del i) -> Printf.sprintf "-%d" i
         | Read -> "read")
       steps)

let apply_write inst = function
  | Ins (rel, a, b) ->
      let inst', tid = Instance.insert inst (Fact.make rel [ value_of a; value_of b ]) in
      if inst' == inst then (inst, None) else (inst', Some (`Add, tid))
  | Del i -> (
      match Tid.Set.elements (Instance.tids inst) with
      | [] -> (inst, None)
      | ts ->
          let tid = List.nth ts (i mod List.length ts) in
          (Instance.delete inst tid, Some (`Del, tid)))

(* A theory's live clauses with every variable named — a tuple by its
   tid, an aux variable by its (edge, tuple) — each clause's literals
   sorted, the clauses sorted: equal for theories of one instance
   whatever their numbering and clause order. *)
let named_clauses (t : Cavsat.Theory.t) =
  List.map
    (fun c ->
      List.sort compare
        (List.map
           (fun l ->
             match Cavsat.Theory.name_of t (abs l) with
             | Some n -> (l > 0, n)
             | None -> Alcotest.failf "clause literal %d names no variable" l)
           c))
    (Sat.Dpll.clauses t.solver)
  |> List.sort compare

let same_theory (patched : Cavsat.Theory.t) (fresh : Cavsat.Theory.t) max_tid =
  patched.no_repairs = fresh.no_repairs
  && patched.base.conflict_edges = fresh.base.conflict_edges
  && Cavsat.Theory.conflicting patched = Cavsat.Theory.conflicting fresh
  && List.for_all
       (fun i ->
         Option.is_some (Cavsat.Theory.var_for patched (Tid.of_int i))
         = Array.mem i (Cavsat.Theory.conflicting fresh))
       (List.init (max_tid + 3) Fun.id)
  && named_clauses patched = named_clauses fresh

let arb_patch_case =
  QCheck.make
    QCheck.Gen.(
      quad (gen_body ~min_atoms:0) gen_db
        (pair (list_repeat (List.length pool) bool) (int_range 0 7))
        gen_steps)
    ~print:(fun ((atoms, comps), db, (mask, never), steps) ->
      Printf.sprintf "%s on %s, pool mask %s%s, then %s"
        (print_query (Cq.make ~name:"d" ~comps [] atoms))
        (print_db db)
        (String.concat "" (List.map (fun b -> if b then "1" else "0") mask))
        (if never = 0 then " + never" else "")
        (print_steps steps))

(* The patched theory, at every read and at the end, equals a fresh
   [Theory.build] of the instance: same live clauses once variables are
   named, same [no_repairs], [var_for] defined on exactly the
   conflicting tids.  Shapes: a random denial (atomless, self-joins,
   comparisons, NULL constants) with a subset of a key, an FD, a
   3-tuple chain, R(x,x) and an always-violated denial, on
   NULL-carrying instances. *)
let prop_patch =
  QCheck.Test.make ~count:400 ~name:"patched Cavsat theory = fresh Theory.build"
    arb_patch_case (fun (body, db_spec, pool_mask, steps) ->
      let ics = theory_ics (body, pool_mask) in
      let db = instance_of db_spec in
      let theory = Cavsat.Theory.build db schema ics in
      let check inst =
        let max_tid =
          Option.fold ~none:0 ~some:Tid.to_int (Tid.Set.max_elt_opt (Instance.tids inst))
          + List.length steps
        in
        same_theory theory (Cavsat.Theory.build inst schema ics) max_tid
      in
      let read (d : Cavsat.Theory.delta) inst =
        Cavsat.Theory.patch theory d inst schema ics;
        check inst
      in
      let rec run (d : Cavsat.Theory.delta) inst = function
        | [] -> read d inst
        | Read :: steps ->
            read d inst
            && run { from = inst; added = Tid.Set.empty; deleted = Tid.Set.empty } inst steps
        | Write w :: steps -> (
            match apply_write inst w with
            | inst, None -> run d inst steps
            | inst, Some (`Add, tid) -> run { d with added = Tid.Set.add tid d.added } inst steps
            | inst, Some (`Del, tid) ->
                let d =
                  if Tid.Set.mem tid d.added then { d with added = Tid.Set.remove tid d.added }
                  else { d with deleted = Tid.Set.add tid d.deleted }
                in
                run d inst steps)
      in
      run { from = db; added = Tid.Set.empty; deleted = Tid.Set.empty } db steps)

(* SAT ≡ enumeration on patched theories, through the engine: writes
   via [Engine.update], a random query read by [`Sat] at every read and
   at the end (the read patches the memo's theory over the writes
   since the previous one), against repair enumeration on the same
   engine. *)
let prop_sat_after_updates =
  QCheck.Test.make ~count:200 ~name:"SAT = enumeration on patched theories"
    (QCheck.make
       QCheck.Gen.(
         quad gen_query (pair (gen_body ~min_atoms:0) gen_db)
           (pair (list_repeat (List.length pool) bool) (int_range 0 7))
           gen_steps)
       ~print:(fun (q, ((atoms, comps), db), (mask, never), steps) ->
         Printf.sprintf "%s under %s on %s, pool mask %s%s, then %s"
           (print_query q)
           (print_query (Cq.make ~name:"d" ~comps [] atoms))
           (print_db db)
           (String.concat "" (List.map (fun b -> if b then "1" else "0") mask))
           (if never = 0 then " + never" else "")
           (print_steps steps)))
    (fun (q, (body, db_spec), pool_mask, steps) ->
      let ics = theory_ics (body, pool_mask) in
      let agrees eng =
        List.sort rows_cmp (Cqa.Engine.consistent_answers ~method_:`Sat eng q)
        = List.sort rows_cmp
            (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
      in
      let step eng = function
        | Read -> if agrees eng then Some eng else None
        | Write (Ins (rel, a, b)) ->
            Some (Cqa.Engine.update eng `Add (Fact.make rel [ value_of a; value_of b ]))
        | Write (Del i) -> (
            match Instance.fact_list eng.Cqa.Engine.instance with
            | [] -> Some eng
            | fs -> Some (Cqa.Engine.update eng `Del (List.nth fs (i mod List.length fs))))
      in
      let eng = Cqa.Engine.create ~schema ~ics (instance_of db_spec) in
      match
        List.fold_left (fun eng s -> Option.bind eng (fun e -> step e s)) (Some eng)
          (Read :: steps)
      with
      | Some eng -> agrees eng
      | None -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cq; prop_violation; prop_witness; prop_conflict_graph; prop_count;
      prop_fd_grouping;
      prop_incremental; prop_theory; prop_edges_with; prop_patch;
      prop_sat_after_updates;
    ]
  @ [ Alcotest.test_case "Cavsat witness arena: every path drawn" `Quick test_witness_paths ]
