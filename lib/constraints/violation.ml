module Instance = Relational.Instance
module Tid = Relational.Tid
module Value = Relational.Value
module Binding = Logic.Binding
module Cq = Logic.Cq
module Plan = Relational.Plan
module Columnar = Relational.Columnar
module Column = Relational.Column

type witness = {
  ic_name : string;
  tids : Tid.Set.t;
  binding : Binding.t;
  matched : (Tid.t * Logic.Atom.t) list;
}

module Tidset_set = Set.Make (Tid.Set)

(* The compiled denial body, run with one [#tid<i>] column per atom
   ({!Cq.compile_body} [~tids:true]) followed by the representative
   columns of [vars]: the step the bindings and the bare tid sets share. *)
let run_body inst (d : Ic.denial) vars =
  let plan, find = Cq.compile_body ~tids:true d.atoms d.comps in
  let tid_cols = List.init (List.length d.atoms) Cq.tid_col in
  let table =
    Plan.run inst (Plan.Project (tid_cols @ Cq.rep_cols find vars, plan))
  in
  (table, find)

(* [plan] with the scan emitting column [col] restricted to tid [x]. *)
let pin_scan col x plan =
  let rec go : Plan.t -> Plan.t = function
    | Scan { tid = Some c; _ } as scan when String.equal c col ->
        Filter
          ( All [ { op = Eq; left = Col col; right = Const (Value.int x) } ],
            scan )
    | Filter (f, p) -> Filter (f, go p)
    | Join (a, b) -> Join (go a, go b)
    | Semijoin (a, b) -> Semijoin (go a, go b)
    | Antijoin (a, b) -> Antijoin (go a, go b)
    | Project (cs, p) -> Project (cs, go p)
    | Distinct p -> Distinct (go p)
    | Union (a, b) -> Union (go a, go b)
    | Diff (a, b) -> Diff (go a, go b)
    | (Scan _ | Table _) as p -> p
  in
  go plan

let tid_sets ?pinned inst (d : Ic.denial) =
  let n_atoms = List.length d.atoms in
  let sets plan =
    let table =
      Plan.run inst (Plan.Project (List.init n_atoms Cq.tid_col, plan))
    in
    let cols = Cq.tid_columns table n_atoms in
    List.init (Columnar.length table) (Tid.Sorted.of_columns cols)
  in
  let plan, _ = Cq.compile_body ~tids:true d.atoms d.comps in
  match pinned with
  | None -> sets plan
  | Some tid -> (
      (* One run per atom that can match the tuple, its scan pinned. *)
      match Instance.find_fact inst tid with
      | None -> []
      | Some fact ->
          List.concat
            (List.mapi
               (fun i (a : Logic.Atom.t) ->
                 if String.equal a.rel fact.Relational.Fact.rel then
                   sets (pin_scan (Cq.tid_col i) (Tid.to_int tid) plan)
                 else [])
               d.atoms))

(* Stable LSD radix sort of [rows] on [codes] less their minimum (an
   unsigned difference, so any int range sorts right): O(n) per pass
   and no comparator call.  The span's bits are split evenly into as
   few passes of at most 8 bits as cover them, so the count array has
   at most 256 slots (a minor-heap block) and a small span sorts in one
   pass over a small array; the loops are plain [for]s. *)
let radix_sort codes rows =
  let m = Array.length rows in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to m - 1 do
    let c = codes.(rows.(i)) in
    if c < !lo then lo := c;
    if c > !hi then hi := c
  done;
  let span = !hi - !lo and lo = !lo in
  let bits = ref 0 in
  while !bits < 63 && span lsr !bits <> 0 do
    incr bits
  done;
  if !bits = 0 then rows
  else begin
    let passes = (!bits + 7) / 8 in
    let width = (!bits + passes - 1) / passes in
    let mask = (1 lsl width) - 1 in
    let count = Array.make (mask + 1) 0 in
    let src = ref rows and dst = ref (Array.make m 0) in
    for p = 0 to passes - 1 do
      let sh = p * width and s = !src and d = !dst in
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to m - 1 do
        let k = ((codes.(s.(i)) - lo) lsr sh) land mask in
        count.(k) <- count.(k) + 1
      done;
      let sum = ref 0 in
      for k = 0 to mask do
        let c = count.(k) in
        count.(k) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to m - 1 do
        let r = s.(i) in
        let k = ((codes.(r) - lo) lsr sh) land mask in
        d.(count.(k)) <- r;
        count.(k) <- count.(k) + 1
      done;
      src := d;
      dst := s
    done;
    !src
  end

(* Key and FD conflicts by grouping, not by self-join (paper, Examples
   3.3-3.4): the rows of the relation's columnar view are ordered by
   their lhs codes, rows with a NULL lhs cell left out (NULL never
   SQL-equals), and two rows of one group conflict on every rhs position
   where both cells are non-NULL and their codes differ — exactly the
   matches of the FD's two-atom denials, one per rhs position.  Rows in
   LOAD order usually arrive grouped already, which one pass detects;
   otherwise a stable radix sort per lhs column, last column first.
   Within a group rows keep tid order, so [emit lo hi k] gets
   [lo < hi]; [k] is the number of rhs positions the pair violates,
   counted with the rhs list's repeats.  With [pinned], only the pinned
   row's group is read, in one scan with no sort. *)
let fd_conflicts ?pinned inst (f : Ic.fd) emit =
  let view = Instance.columnar inst ~rel:f.rel in
  let columns = Columnar.columns view in
  let column p =
    if p < 0 || p + 1 >= Array.length columns then
      invalid_arg (Printf.sprintf "Violation: %s has no position %d" f.rel p);
    columns.(p + 1)
  in
  let tids =
    match columns.(0).Column.data with Column.Ints a -> a | _ -> assert false
  in
  let lhs = Array.of_list (List.map (fun p -> Column.eq_codes (column p)) f.lhs) in
  let lhs_nullable = List.filter Column.has_nulls (List.map column f.lhs) in
  let rhs =
    Array.of_list
      (List.map
         (fun p ->
           let c = column p in
           (Column.eq_codes c, if Column.has_nulls c then Some c else None))
         f.rhs)
  in
  let n = Columnar.length view in
  let null_lhs i = List.exists (fun c -> Column.is_null c i) lhs_nullable in
  let same_lhs i j =
    let k = ref 0 in
    while !k < Array.length lhs && lhs.(!k).(i) = lhs.(!k).(j) do
      incr k
    done;
    !k = Array.length lhs
  in
  let differing i j =
    let k = ref 0 in
    for p = 0 to Array.length rhs - 1 do
      let codes, nulls = rhs.(p) in
      let both =
        match nulls with
        | None -> true
        | Some c -> not (Column.is_null c i || Column.is_null c j)
      in
      if both && codes.(i) <> codes.(j) then incr k
    done;
    !k
  in
  let pair i j =
    let k = differing i j in
    if k > 0 then emit (Tid.of_int tids.(i)) (Tid.of_int tids.(j)) k
  in
  match pinned with
  | Some tid ->
      (* The view is in tid order: find the pinned row, then its group. *)
      let x = Tid.to_int tid in
      let rec find lo hi =
        if lo >= hi then None
        else
          let mid = (lo + hi) lsr 1 in
          if tids.(mid) = x then Some mid
          else if tids.(mid) < x then find (mid + 1) hi
          else find lo mid
      in
      Option.iter
        (fun p ->
          if not (null_lhs p) then
            for i = 0 to n - 1 do
              if i <> p && same_lhs i p then
                if i < p then pair i p else pair p i
            done)
        (find 0 n)
  | None ->
      let rows =
        if lhs_nullable = [] then Array.init n Fun.id
        else
          let rows = Array.make n 0 and m = ref 0 in
          for i = 0 to n - 1 do
            if not (null_lhs i) then begin
              rows.(!m) <- i;
              incr m
            end
          done;
          Array.sub rows 0 !m
      in
      (* Are row [i]'s lhs codes lexicographically at most row [j]'s? *)
      let ordered i j =
        let k = ref 0 in
        while !k < Array.length lhs && lhs.(!k).(i) = lhs.(!k).(j) do
          incr k
        done;
        !k = Array.length lhs || lhs.(!k).(i) < lhs.(!k).(j)
      in
      let m = Array.length rows in
      let grouped = ref true and i = ref 1 in
      while !grouped && !i < m do
        grouped := ordered rows.(!i - 1) rows.(!i);
        incr i
      done;
      let rows =
        if !grouped then rows
        else Array.fold_right radix_sort lhs rows
      in
      let g = ref 0 in
      while !g < m do
        let e = ref (!g + 1) in
        while !e < m && same_lhs rows.(!g) rows.(!e) do
          incr e
        done;
        for a = !g to !e - 2 do
          for b = a + 1 to !e - 1 do
            pair rows.(a) rows.(b)
          done
        done;
        g := !e
      done

(* Matches are listed in descending lexicographic order of their tid
   vectors, so the dedup fold below keeps, per tid set, the match with
   the greatest tid vector as its representative. *)
let of_denial inst (d : Ic.denial) =
  let n_atoms = List.length d.atoms in
  let body_vars =
    Logic.Term.vars (List.concat_map (fun (a : Logic.Atom.t) -> a.args) d.atoms)
  in
  let table, find = run_body inst d body_vars in
  let col v = Columnar.col_index table (find v) in
  let tid_at (row : Value.t array) i =
    match row.(i) with Value.Int t -> Tid.of_int t | _ -> assert false
  in
  let rows =
    List.sort
      (fun (r1 : Value.t array) r2 ->
        let rec go i =
          if i = n_atoms then 0
          else match Value.compare r1.(i) r2.(i) with 0 -> go (i + 1) | c -> c
        in
        go 0)
      (Columnar.rows table)
  in
  let raw =
    List.rev_map
      (fun row ->
        let env =
          List.fold_left
            (fun env v -> Binding.bind env v row.(col v))
            Binding.empty body_vars
        in
        (env, List.mapi (fun i a -> (tid_at row i, a)) d.atoms))
      rows
  in
  (* Distinct tid sets only: symmetric constraint bodies (e.g. an FD's two
     atoms) produce each conflict once per automorphism. *)
  let _, witnesses =
    List.fold_left
      (fun (seen, ws) (binding, matched) ->
        let tids =
          List.fold_left
            (fun acc (tid, _) -> Tid.Set.add tid acc)
            Tid.Set.empty matched
        in
        if Tidset_set.mem tids seen then (seen, ws)
        else
          ( Tidset_set.add tids seen,
            { ic_name = d.name; tids; binding; matched } :: ws ))
      (Tidset_set.empty, []) raw
  in
  List.rev witnesses

(* Dangling sub tuples by an antijoin over the columnar views: the sub
   tuples with no NULL key cell (a NULL satisfies the IND, as for SQL
   foreign keys), less those whose key joins a sup tuple.  Each sup
   position joins the sub column of the first pair naming it; a later
   pair on the same sup position equates its sub column with that one
   instead, and one sub column paired with two sup positions is a
   repeated variable of the sup scan. *)
let of_ind inst (i : Ic.ind) =
  let sub_rel, sub_ps = i.Ic.sub and sup_rel, sup_ps = i.Ic.sup in
  let by_sup = List.combine sup_ps sub_ps in
  let arity rel = Relational.Schema.arity (Instance.schema inst) rel in
  let s p = Printf.sprintf "s%d" p in
  let eq a b =
    { Plan.op = Plan.Eq; left = Plan.Col (s a); right = Plan.Col (s b) }
  in
  let tid = Instance.tid_column in
  let sub =
    Plan.Scan
      {
        rel = sub_rel;
        args = List.init (arity sub_rel) (fun p -> Plan.Avar (s p));
        tid = Some tid;
      }
  in
  let sup_arg q =
    match List.assoc_opt q by_sup with
    | Some p -> Plan.Avar (s p)
    | None -> Plan.Avar (Printf.sprintf "t%d" q)
  in
  let sup =
    Plan.Scan
      { rel = sup_rel; args = List.init (arity sup_rel) sup_arg; tid = None }
  in
  let non_null =
    Plan.Filter (Plan.All (List.map (fun p -> eq p p) sub_ps), sub)
  in
  let joined =
    Plan.Semijoin
      ( Plan.Filter
          ( Plan.All
              (List.map (fun (q, p) -> eq p (List.assoc q by_sup)) by_sup),
            sub ),
        sup )
  in
  let table =
    Plan.run inst
      (Plan.Antijoin
         (Plan.Project ([ tid ], non_null), Plan.Project ([ tid ], joined)))
  in
  let tids = Columnar.column table tid in
  List.init (Columnar.length table) (fun r ->
      match Column.get tids r with
      | Value.Int t -> Tid.of_int t
      | _ -> assert false)

let of_ic inst schema ic =
  match ic with
  | Ic.Ind i ->
      List.map
        (fun tid ->
          {
            ic_name = Ic.name ic;
            tids = Tid.Set.singleton tid;
            binding = Binding.empty;
            matched = [];
          })
        (of_ind inst i)
  | _ ->
      let denials = Option.get (Ic.to_denials schema ic) in
      List.concat_map (of_denial inst) denials

let all inst schema ics = List.concat_map (of_ic inst schema) ics

(* [List.length (all ...)] without a witness or a binding: keys and FDs
   through the grouping kernel, other denials by their distinct tid
   sets, INDs by their dangling tuples. *)
let count inst schema ics =
  let count_ic ic =
    match Ic.as_fd schema ic, ic with
    | Some f, _ ->
        let n = ref 0 in
        fd_conflicts inst f (fun _ _ k -> n := !n + k);
        !n
    | None, Ic.Ind i -> List.length (of_ind inst i)
    | None, _ ->
        List.fold_left
          (fun n d ->
            n + List.length (List.sort_uniq Tid.Sorted.compare (tid_sets inst d)))
          0
          (Option.get (Ic.to_denials schema ic))
  in
  List.fold_left (fun n ic -> n + count_ic ic) 0 ics

let is_consistent inst schema ics = count inst schema ics = 0

let pp_witness ppf w =
  Format.fprintf ppf "%s: {%a}" w.ic_name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Tid.pp)
    (Tid.Set.elements w.tids)
