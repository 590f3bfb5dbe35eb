(* Compiled execution plans over columnar tables.

   A [Plan.t] is a small relational-algebra AST; [run] turns it into
   specialized kernels over {!Columnar} tables: selections are pushed
   into scans, hash-join build/probe is fused with projection (only the
   columns some ancestor needs are ever gathered), and the inner loops
   run on unboxed code arrays — no per-tuple column-name resolution and
   no [Value.t] variant dispatch.

   Semantics:
   - all equality tests are SQL three-valued: a selection keeps a row
     only when the predicate is {e definitely} true, and NULL never
     joins (kernels mask the NULL bitmap before comparing codes);
   - [Distinct], [Union] and [Diff] restore set semantics and return
     rows sorted by [Value.compare];
   - join output order is nested-loop order (left-major, right
     ascending).

   Single-key joins, semijoins and antijoins probe the build side's
   {!Column.index}: the index is kept on the column it was built over
   and reused by every later join that builds over that column, so a
   join against an unchanged base relation's view builds no hash table.
   The build side is the right input, unless a single-key join's larger
   left input has earned a kept index ({!Column.earned_index}); the
   join then probes from the right and radix-sorts the pairs back into
   nested-loop order.  Multi-key kernels and [Diff] probe a {!Keys}
   index, the same flat layout, built per call.  Every node ticks
   {!Obs.Progress}, and so does every 4,096th row of a loop.

   Allocation: a kernel allocates its outputs at their exact size, and
   calls a closure per row only to test a predicate.  Probe
   kernels run twice, a counting pass that walks the index chains and a
   filling pass into arrays of the counted size ({!exact}), so nothing
   is allocated per probe row; a fused filter's pair test runs inside
   both passes.  Scans and filters mark the rows they keep in a bitmap
   (a bit a row) and fill the exact selection from it; [Distinct]
   compacts its sorted keys in place.  A filter whose predicates are
   self-equalities [x = x] over NULL-free columns keeps every row, and
   passes its input through.

   Counters: [scan.columnar] per scan executed, [join.fused] per fused
   hash-join/semijoin/antijoin kernel, [join.probe_rows] the rows those
   kernels and [Diff] probed into an index, [join.index_builds] (counted
   in {!Column}) per single-key join index built — kept on its column,
   or for one join when the codes were re-encoded. *)

type op = Eq | Neq | Lt | Le | Gt | Ge
type operand = Col of string | Const of Value.t
type pred = { op : op; left : operand; right : operand }

type filter =
  | All of pred list  (* conjunction: every predicate definitely true *)
  | Any of pred list  (* disjunction: some predicate definitely true *)

type arg = Avar of string | Aconst of Value.t

type t =
  | Scan of { rel : string; args : arg list; tid : string option }
  | Table of Columnar.t
  | Filter of filter * t
  | Join of t * t
  | Semijoin of t * t
  | Antijoin of t * t
  | Project of string list * t
  | Distinct of t
  | Union of t * t
  | Diff of t * t

let c_scan_columnar = Obs.Counter.make "scan.columnar"
let c_join_fused = Obs.Counter.make "join.fused"
let c_probe_rows = Obs.Counter.make "join.probe_rows"

(* --- static output columns ------------------------------------------ *)

(* Unique variables of a scan in first-occurrence order, preceded by the
   tid column when requested. *)
let scan_cols ~tid args =
  let vars =
    List.fold_left
      (fun acc a ->
        match a with
        | Avar v when not (List.mem v acc) -> v :: acc
        | Avar _ | Aconst _ -> acc)
      [] args
    |> List.rev
  in
  match tid with None -> vars | Some name -> name :: vars

let rec cols = function
  | Scan { args; tid; _ } -> scan_cols ~tid args
  | Table tbl -> Array.to_list (Columnar.cols tbl)
  | Filter (_, p) | Distinct p -> cols p
  | Join (a, b) ->
      let ca = cols a in
      ca @ List.filter (fun c -> not (List.mem c ca)) (cols b)
  | Semijoin (a, _) | Antijoin (a, _) -> cols a
  | Project (names, _) -> names
  | Union (a, _) | Diff (a, _) -> cols a

(* --- predicate compilation ------------------------------------------ *)

let eval_op op l r : Tvl.t =
  match op with
  | Eq -> Value.sql_eq l r
  | Neq -> Tvl.not_ (Value.sql_eq l r)
  | Lt -> Value.sql_cmp (fun c -> c < 0) l r
  | Le -> Value.sql_cmp (fun c -> c <= 0) l r
  | Gt -> Value.sql_cmp (fun c -> c > 0) l r
  | Ge -> Value.sql_cmp (fun c -> c >= 0) l r

(* Row predicate for "column = constant" being definitely true, with the
   representation dispatch resolved once. *)
let const_eq_matcher (c : Column.t) v =
  if Value.is_null v then fun _ -> false
  else
    match c.Column.data, v with
    | Column.Ints a, Value.Int x ->
        fun i -> (not (Column.is_null c i)) && Array.unsafe_get a i = x
    | Column.Reals a, Value.Real x ->
        fun i -> (not (Column.is_null c i)) && Float.equal (Array.unsafe_get a i) x
    | Column.Bools a, Value.Bool x ->
        fun i -> (not (Column.is_null c i)) && Array.unsafe_get a i = x
    | Column.Codes a, _ ->
        let code = Dict.intern v in
        fun i -> (not (Column.is_null c i)) && Array.unsafe_get a i = code
    | (Column.Ints _ | Column.Reals _ | Column.Bools _), _ ->
        (* Typed column vs a constant of another type: never definitely
           equal (sql_eq is False on non-null cells, Unknown on NULL). *)
        fun _ -> false

let const_neq_matcher (c : Column.t) v =
  if Value.is_null v then fun _ -> false
  else
    match c.Column.data, v with
    | Column.Ints a, Value.Int x ->
        fun i -> (not (Column.is_null c i)) && Array.unsafe_get a i <> x
    | Column.Reals a, Value.Real x ->
        fun i ->
          (not (Column.is_null c i))
          && not (Float.equal (Array.unsafe_get a i) x)
    | Column.Bools a, Value.Bool x ->
        fun i -> (not (Column.is_null c i)) && Array.unsafe_get a i <> x
    | Column.Codes a, _ ->
        let code = Dict.intern v in
        fun i -> (not (Column.is_null c i)) && Array.unsafe_get a i <> code
    | (Column.Ints _ | Column.Reals _ | Column.Bools _), _ ->
        (* Different type: definitely unequal wherever non-null. *)
        fun i -> not (Column.is_null c i)

(* Column-column equality/inequality over paired codes. *)
let col_eq_matcher keep_eq l r =
  let xl, xr = Column.pair_eq_codes l r in
  fun i ->
    (not (Column.is_null l i))
    && (not (Column.is_null r i))
    && (Array.unsafe_get xl i = Array.unsafe_get xr i) = keep_eq

let pred_matcher tbl (p : pred) =
  let column = function
    | Col name -> `C (Columnar.column tbl name)
    | Const v -> `V v
  in
  match p.op, column p.left, column p.right with
  | Eq, `C l, `C r -> col_eq_matcher true l r
  | Neq, `C l, `C r -> col_eq_matcher false l r
  | Eq, `C c, `V v | Eq, `V v, `C c -> const_eq_matcher c v
  | Neq, `C c, `V v | Neq, `V v, `C c -> const_neq_matcher c v
  | op, l, r ->
      (* Order comparisons (and const-const): generic three-valued
         evaluation through per-column decode closures. *)
      let getter = function
        | `C c -> Column.getter c
        | `V v -> fun _ -> v
      in
      let gl = getter l and gr = getter r in
      fun i -> Tvl.to_bool (eval_op op (gl i) (gr i))

(* Conjunction and disjunction of row matchers.  Top-level, so a row
   test allocates no closure. *)
let rec all_hold ms i = match ms with [] -> true | m :: ms -> m i && all_hold ms i
let rec any_holds ms i = match ms with [] -> false | m :: ms -> m i || any_holds ms i

let filter_matcher tbl = function
  | All [ p ] | Any [ p ] -> pred_matcher tbl p
  | All ps -> all_hold (List.map (pred_matcher tbl) ps)
  | Any ps -> any_holds (List.map (pred_matcher tbl) ps)

(* [x = x] is definitely true on every row of a NULL-free column. *)
let self_eq column (p : pred) =
  match p with
  | { op = Eq; left = Col x; right = Col y } when String.equal x y ->
      not (Column.has_nulls (column x))
  | _ -> false

(* The filter left once the self-equalities [self_eq] proves true are
   dropped, or [None] when it keeps every row — the self-equalities
   [Formula.plan_answers] adds under an existential prefix, over
   NULL-free columns. *)
let live_filter column = function
  | All ps -> (
      match List.filter (fun p -> not (self_eq column p)) ps with
      | [] -> None
      | ps -> Some (All ps))
  | Any ps as f -> if List.exists (self_eq column) ps then None else Some f

(* --- helpers --------------------------------------------------------- *)

let keep names needed =
  match needed with
  | None -> names
  | Some ns -> List.filter (fun c -> List.mem c ns) names

(* Drop columns outside [needed]; never touches rows. *)
let restrict_cols tbl needed =
  match needed with
  | None -> tbl
  | Some _ ->
      let names = keep (Array.to_list (Columnar.cols tbl)) needed in
      if List.length names = Array.length (Columnar.cols tbl) then tbl
      else
        Columnar.make (Array.of_list names)
          (Array.of_list (List.map (Columnar.column tbl) names))
          (Columnar.length tbl)

(* A deadline stops a large join from inside its loops. *)
let tick_rows i = if i land 4095 = 0 then Obs.Progress.tick ()

(* The rows [i < n] that [keep] accepts, ascending, in an exact-size
   array: one pass tests each row once and marks it in a bitmap (a bit a
   row), a second fills the array from the bitmap. *)
let select_rows n keep =
  let bits = Column.bitmap n in
  let m = ref 0 in
  for i = 0 to n - 1 do
    tick_rows i;
    if keep i then begin
      Column.bit_set bits i;
      incr m
    end
  done;
  let sel = Array.make !m 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if Column.bit_get bits i then begin
      Array.unsafe_set sel !k i;
      incr k
    end
  done;
  sel

(* Exact-size outputs of a kernel that can run twice: [pass out] writes
   its [k]th output to [out.(k)] when [out] is non-empty and returns how
   many it has, so a counting pass over [[||]] sizes the array the
   filling pass writes.  Probe kernels use it in place of a per-row
   scratch: a probe is cheaper to repeat than a buffer is to grow. *)
let exact pass =
  match pass [||] with
  | 0 -> [||]
  | m ->
      let out = Array.make m 0 in
      ignore (pass out : int);
      out

(* The same for kernels with two outputs, the row pairs of a join. *)
let exact2 pass =
  match pass [||] [||] with
  | 0 -> ([||], [||])
  | m ->
      let a = Array.make m 0 and b = Array.make m 0 in
      ignore (pass a b : int);
      (a, b)

(* A chained index over the rows of k code arrays, in {!Column.index}'s
   layout: [slots] (a power of two, at least twice the rows) holds the
   lowest row of each key tuple's chain or -1, [next] the next row with
   its tuple.  The slot is picked by a mixed hash of the row's k codes
   and its head checked against the arrays, so no tuple is allocated.
   Built per call, never kept. *)
module Keys = struct
  type t = { keys : int array array; slots : int array; next : int array }

  let hash keys i mask =
    let h = ref 0 in
    for p = 0 to Array.length keys - 1 do
      h := (!h + Array.unsafe_get (Array.unsafe_get keys p) i) * 0x2545F4914F6CDD1D
    done;
    (!h lsr 8) land mask

  (* Row [i] of [probe] equals row [j] of [keys].  Top-level, like
     [slot], so a probe allocates no closure. *)
  let rec same probe i keys j p =
    p < 0
    || Array.unsafe_get (Array.unsafe_get probe p) i
       = Array.unsafe_get (Array.unsafe_get keys p) j
       && same probe i keys j (p - 1)

  (* The slot holding row [i]'s tuple, or the empty slot where it would go. *)
  let rec slot t probe i mask s =
    let h = Array.unsafe_get t.slots s in
    if h < 0 || same probe i t.keys h (Array.length probe - 1) then s
    else slot t probe i mask ((s + 1) land mask)

  (* The lowest row whose tuple is row [i] of [probe], or -1. *)
  let find t probe i =
    let mask = Array.length t.slots - 1 in
    Array.unsafe_get t.slots (slot t probe i mask (hash probe i mask))

  let rec null_at (cs : Column.t array) i p =
    p >= 0 && (Column.is_null cs.(p) i || null_at cs i (p - 1))

  (* All [n] rows of [keys] but those NULL in a column of [nullable].
     Rows go in back to front, so every chain runs ascending. *)
  let build keys n nullable =
    let cap = ref 16 in
    while !cap < 2 * n do cap := 2 * !cap done;
    let mask = !cap - 1 in
    let t = { keys; slots = Array.make !cap (-1); next = Array.make (max 1 n) (-1) } in
    for j = n - 1 downto 0 do
      tick_rows j;
      if not (null_at nullable j (Array.length nullable - 1)) then begin
        let s = slot t keys j mask (hash keys j mask) in
        t.next.(j) <- t.slots.(s);
        t.slots.(s) <- j
      end
    done;
    t
end

(* In-place quicksort (median-of-three, insertion sort below 16) for
   int arrays: [Array.sort Int.compare] pays a closure call per
   comparison, which would dominate the distinct kernel's final sort. *)
let sort_ints (a : int array) =
  let swap i j =
    let t = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j t
  in
  let rec qsort lo hi =
    if hi - lo < 16 then
      for i = lo + 1 to hi do
        let x = Array.unsafe_get a i in
        let j = ref (i - 1) in
        while !j >= lo && Array.unsafe_get a !j > x do
          Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
          decr j
        done;
        Array.unsafe_set a (!j + 1) x
      done
    else begin
      let mid = (lo + hi) / 2 in
      if Array.unsafe_get a mid < Array.unsafe_get a lo then swap mid lo;
      if Array.unsafe_get a hi < Array.unsafe_get a lo then swap hi lo;
      if Array.unsafe_get a hi < Array.unsafe_get a mid then swap hi mid;
      let pivot = Array.unsafe_get a mid in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while Array.unsafe_get a !i < pivot do
          incr i
        done;
        while Array.unsafe_get a !j > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
  in
  let n = Array.length a in
  if n > 1 then qsort 0 (n - 1)

(* Value-order ranks for the cells of [c]: an int per row such that rank
   comparison coincides with [Value.compare] on the decoded cells,
   paired with a radix bound (ranks all sit in [0, radix) when the
   bound is finite-ish).  Int columns rank by the raw value shifted to
   zero — no hashing, no boxing; other columns dense-rank their
   distinct codes, decoding each once, at the lowest row holding it.
   A [max_int] radix marks ranks usable for comparison but not for
   radix packing (sparse ints whose range overflows). *)
let value_ranks (c : Column.t) codes =
  let n = Array.length codes in
  match c.Column.data with
  | Column.Ints a when not (Column.has_nulls c) ->
      let mn = ref max_int and mx = ref min_int in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get a i in
        if v < !mn then mn := v;
        if v > !mx then mx := v
      done;
      let mn = !mn in
      let range = !mx - mn + 1 in
      if n = 0 then ([||], 1)
      else if range > 0 then begin
        let r = Array.make n 0 in
        for i = 0 to n - 1 do
          Array.unsafe_set r i (Array.unsafe_get a i - mn)
        done;
        (r, range)
      end
      else (Array.copy a, max_int)
  | _ ->
      let key = [| codes |] in
      let ix = Keys.build key n [||] in
      let firsts = List.filter (fun i -> Keys.find ix key i = i) (List.init n Fun.id) in
      let sorted =
        List.sort
          (fun (_, a) (_, b) -> Value.compare a b)
          (List.map (fun i -> (i, Column.get c i)) firsts)
      in
      let rank = Array.make n 0 in
      List.iteri (fun r (i, _) -> rank.(i) <- r) sorted;
      (Array.init n (fun i -> rank.(Keys.find ix key i)), List.length sorted)

(* Set semantics + the sorted ([Value.compare]) row order.

   Fast path: per column, codes are replaced by their value-order ranks
   and each row's rank vector is packed — together with the row's
   position as a tiebreak — into a single machine int whose natural
   order is the rank-lex (= [Value.compare] row) order.  One unboxed
   int sort then yields rows in final order with duplicates adjacent,
   so dedup is a linear scan: no per-row key allocation, no boxed
   comparisons.  When the rank-space product would overflow, fall back
   to hashed dedup plus a rank-vector comparison sort. *)
let distinct_table tbl =
  let n = Columnar.length tbl in
  let columns = Columnar.columns tbl in
  let keys = Array.map Column.eq_codes columns in
  let k = Array.length keys in
  if n = 0 then tbl
  else begin
    let rr = Array.init k (fun j -> value_ranks columns.(j) keys.(j)) in
    let ranks = Array.map fst rr and radix = Array.map snd rr in
    let fits =
      Array.fold_left (fun acc m -> acc *. float_of_int m) (float_of_int n) radix
      < 1e18
    in
    if fits then begin
      let packed = Array.make n 0 in
      for i = 0 to n - 1 do
        let acc = ref 0 in
        for j = 0 to k - 1 do
          acc := (!acc * Array.unsafe_get radix j) + Array.unsafe_get (Array.unsafe_get ranks j) i
        done;
        Array.unsafe_set packed i ((!acc * n) + i)
      done;
      sort_ints packed;
      (* Keep the first row of each run of equal rank vectors, compacted
         to the front of [packed] (the write never passes the read). *)
      let m = ref 0 and prev = ref (-1) in
      for q = 0 to n - 1 do
        let p = Array.unsafe_get packed q in
        let comp = p / n in
        if comp <> !prev then begin
          prev := comp;
          Array.unsafe_set packed !m (p mod n);
          incr m
        end
      done;
      Columnar.select tbl (if !m = n then packed else Array.sub packed 0 !m)
    end
    else begin
      let seen = Keys.build keys n [||] in
      let idx = select_rows n (fun i -> Keys.find seen keys i = i) in
      let order = Array.init (Array.length idx) Fun.id in
      let sub = Array.map (fun r -> Array.map (fun i -> r.(i)) idx) ranks in
      Array.sort
        (fun a b ->
          let rec go j =
            if j >= k then 0
            else
              match Int.compare (sub.(j)).(a) (sub.(j)).(b) with
              | 0 -> go (j + 1)
              | c -> c
          in
          go 0)
        order;
      Columnar.select tbl (Array.map (fun s -> idx.(s)) order)
    end
  end

(* --- scan ------------------------------------------------------------ *)

let exec_scan inst needed ~rel ~args ~tid =
  Obs.Counter.incr c_scan_columnar;
  let base = Instance.columnar inst ~rel in
  let base_cols = Columnar.columns base in
  let out_names = keep (scan_cols ~tid args) needed in
  let arity = Array.length (Columnar.cols base) - 1 in
  if List.length args <> arity then
    (* Arity-mismatched atom: matches nothing (the row evaluators reject
       every tuple the same way). *)
    Columnar.empty (Array.of_list out_names)
  else begin
    (* Fused per-row selection: constant arguments plus repeated
       variables, one pass. *)
    let first_pos : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let matchers = ref [] in
    List.iteri
      (fun j a ->
        let c = base_cols.(j + 1) in
        match a with
        | Aconst v -> matchers := const_eq_matcher c v :: !matchers
        | Avar x -> (
            match Hashtbl.find_opt first_pos x with
            | None -> Hashtbl.add first_pos x (j + 1)
            | Some j0 -> matchers := col_eq_matcher true base_cols.(j0) c :: !matchers))
      args;
    let pick name =
      match tid with
      | Some t when String.equal t name -> 0
      | _ -> Hashtbl.find first_pos name
    in
    match !matchers with
    | [] ->
        (* No selection: share the base columns outright. *)
        Columnar.make
          (Array.of_list out_names)
          (Array.of_list (List.map (fun nm -> base_cols.(pick nm)) out_names))
          (Columnar.length base)
    | ms ->
        let idx =
          select_rows (Columnar.length base)
            (match ms with [ m ] -> m | ms -> all_hold ms)
        in
        Columnar.make
          (Array.of_list out_names)
          (Array.of_list
             (List.map (fun nm -> Column.gather base_cols.(pick nm) idx) out_names))
          (Array.length idx)
  end

(* --- joins ----------------------------------------------------------- *)

(* Stable LSD radix sort of the pairs by [ia] (rows below [n]), 8 bits
   a pass, through one pair of scratch arrays: linear in the pairs, and
   free when they already come in order. *)
let sort_pairs ia ib n =
  let m = Array.length ia in
  let rec sorted k = k >= m || (ia.(k - 1) <= ia.(k) && sorted (k + 1)) in
  if sorted 1 then (ia, ib)
  else begin
    let src = ref (ia, ib) and dst = ref (Array.make m 0, Array.make m 0) in
    let start = Array.make 257 0 and shift = ref 0 in
    while (n - 1) lsr !shift > 0 do
      let (sa, sb), (da, db) = (!src, !dst) in
      let digit k = (Array.unsafe_get sa k lsr !shift) land 255 in
      Array.fill start 0 257 0;
      for k = 0 to m - 1 do
        start.(digit k + 1) <- start.(digit k + 1) + 1
      done;
      for d = 1 to 256 do
        start.(d) <- start.(d) + start.(d - 1)
      done;
      for k = 0 to m - 1 do
        let d = digit k in
        da.(start.(d)) <- sa.(k);
        db.(start.(d)) <- sb.(k);
        start.(d) <- start.(d) + 1
      done;
      src := (da, db);
      dst := (sa, sb);
      shift := !shift + 8
    done;
    !src
  end

(* The probe kernels below write each output at its position [k] in
   [out] arrays (skipped while those are empty, the counting pass of
   {!exact}/{!exact2}) and return how many outputs there are; they
   allocate nothing.  A join's [keep], when given, is the pair test of a
   fused filter, called as [keep i j] on left row [i] and right row
   [j]. *)

(* Probes the [n] rows of column [c] (codes [x]) into [ix]: each match
   [f] of probe row [r] that [keep] accepts goes to [pr]/[fr]. *)
let probe_index ix (c : Column.t) x n keep pr fr =
  let fill = Array.length pr > 0 in
  let k = ref 0 in
  for r = 0 to n - 1 do
    tick_rows r;
    if not (Column.is_null c r) then begin
      let f = ref (Column.index_find ix (Array.unsafe_get x r)) in
      while !f >= 0 do
        if match keep with None -> true | Some keep -> keep r !f then begin
          if fill then begin
            Array.unsafe_set pr !k r;
            Array.unsafe_set fr !k !f
          end;
          incr k
        end;
        f := Column.index_next ix !f
      done
    end
  done;
  !k

(* The same over a {!Keys} index, probing the rows of [xa] that are
   NULL in no column of [nullable]. *)
let probe_keys (ix : Keys.t) xa nullable na keep ia ib =
  let fill = Array.length ia > 0 in
  let k = ref 0 in
  for i = 0 to na - 1 do
    tick_rows i;
    if not (Keys.null_at nullable i (Array.length nullable - 1)) then begin
      let j = ref (Keys.find ix xa i) in
      while !j >= 0 do
        if match keep with None -> true | Some keep -> keep i !j then begin
          if fill then begin
            Array.unsafe_set ia !k i;
            Array.unsafe_set ib !k !j
          end;
          incr k
        end;
        j := Array.unsafe_get ix.Keys.next !j
      done
    end
  done;
  !k

(* Every pair of a cartesian product that [keep] accepts. *)
let cross na nb keep ia ib =
  let fill = Array.length ia > 0 in
  let k = ref 0 in
  for i = 0 to na - 1 do
    tick_rows i;
    for j = 0 to nb - 1 do
      if match keep with None -> true | Some keep -> keep i j then begin
        if fill then begin
          Array.unsafe_set ia !k i;
          Array.unsafe_set ib !k j
        end;
        incr k
      end
    done
  done;
  !k

(* [tb]'s multi-key index on [shared], without the rows NULL in a key,
   plus [ta]'s key codes and its key columns that hold NULLs. *)
let keys_index ta tb shared =
  let ca = List.map (Columnar.column ta) shared
  and cb = List.map (Columnar.column tb) shared in
  let xa, xb = List.split (List.map2 Column.pair_eq_codes ca cb) in
  let nullable cs = Array.of_list (List.filter Column.has_nulls cs) in
  ( Keys.build (Array.of_list xb) (Columnar.length tb) (nullable cb),
    Array.of_list xa,
    nullable ca )

(* Matching row-index pairs of [ta] ⋈ [tb] on [shared] that [keep]
   accepts, in nested-loop order: [ta]-major, [tb] ascending within
   each [ta] row.  Each chain of an index runs in ascending row order,
   so probing [ta]'s rows into [tb]'s index yields that order directly.
   A single-key join whose larger left side has earned a kept index
   probes [tb]'s rows into it instead, and [sort_pairs] restores the
   order. *)
let match_pairs ?keep ta tb shared =
  let na = Columnar.length ta and nb = Columnar.length tb in
  match shared with
  | [] -> exact2 (cross na nb keep)
  | [ key ] -> (
      Obs.Counter.incr c_join_fused;
      let ca = Columnar.column ta key and cb = Columnar.column tb key in
      let xa, xb = Column.pair_eq_codes ca cb in
      match if na > nb then Column.earned_index ca xa else None with
      | Some ix ->
          Obs.Counter.add c_probe_rows nb;
          let keep = Option.map (fun keep j i -> keep i j) keep in
          let ib, ia = exact2 (probe_index ix cb xb nb keep) in
          sort_pairs ia ib na
      | None ->
          Column.note_probes ca na;
          Obs.Counter.add c_probe_rows na;
          exact2 (probe_index (Column.index cb xb) ca xa na keep))
  | keys ->
      Obs.Counter.incr c_join_fused;
      Obs.Counter.add c_probe_rows na;
      let ix, xa, nullable = keys_index ta tb keys in
      exact2 (probe_keys ix xa nullable na keep)

(* The rows [i] of [ta] whose [xa] code is (or, with [anti], is not) a
   key of [ix]; a NULL key (in [ca]) is never one. *)
let presence_index ix ca xa na anti out =
  let fill = Array.length out > 0 in
  let k = ref 0 in
  for i = 0 to na - 1 do
    tick_rows i;
    let matched =
      (not (Column.is_null ca i)) && Column.index_find ix (Array.unsafe_get xa i) >= 0
    in
    if matched <> anti then begin
      if fill then Array.unsafe_set out !k i;
      incr k
    end
  done;
  !k

(* The same over a {!Keys} index; with no [nullable] columns (NULL
   keys included, as [Diff] probes them) this is positional set
   difference. *)
let presence_keys ix xa nullable na anti out =
  let fill = Array.length out > 0 in
  let k = ref 0 in
  for i = 0 to na - 1 do
    tick_rows i;
    let matched =
      (not (Keys.null_at nullable i (Array.length nullable - 1)))
      && Keys.find ix xa i >= 0
    in
    if matched <> anti then begin
      if fill then Array.unsafe_set out !k i;
      incr k
    end
  done;
  !k

(* Row indexes of [ta] that have (or lack) a [shared]-match in [tb].
   NULL keys never match: the semijoin drops them, the antijoin keeps
   them. *)
let presence_sel ~anti ta tb shared =
  Obs.Counter.incr c_join_fused;
  let na = Columnar.length ta in
  Obs.Counter.add c_probe_rows na;
  match shared with
  | [ key ] ->
      let ca = Columnar.column ta key and cb = Columnar.column tb key in
      let xa, xb = Column.pair_eq_codes ca cb in
      exact (presence_index (Column.index cb xb) ca xa na anti)
  | _ ->
      let ix, xa, nullable = keys_index ta tb shared in
      exact (presence_keys ix xa nullable na anti)

(* --- execution ------------------------------------------------------- *)

let union_needed needed extra =
  match needed with None -> None | Some ns -> Some (extra @ ns)

let filter_preds = function All ps | Any ps -> ps

let pred_cols ps =
  List.concat_map
    (fun p ->
      List.filter_map
        (function Col c -> Some c | Const _ -> None)
        [ p.left; p.right ])
    ps

(* Predicate matcher over a candidate join pair (i, j): operand columns
   are resolved to their side once, Eq/Neq compare pre-paired codes.
   Used by the fused filter-join kernel so filtered joins never
   materialize rows the predicate rejects. *)
let pair_pred_matcher ta tb (p : pred) =
  let a_names = Columnar.cols ta in
  let resolve = function
    | Col nm ->
        if Array.exists (String.equal nm) a_names then
          `A (Columnar.column ta nm)
        else `B (Columnar.column tb nm)
    | Const v -> `V v
  in
  let side_col = function `A c | `B c -> c | `V _ -> assert false in
  let side_idx op i j = match op with `A _ -> i | `B _ -> j | `V _ -> 0 in
  match p.op, resolve p.left, resolve p.right with
  | (Eq | Neq), ((`A _ | `B _) as l), ((`A _ | `B _) as r) ->
      let cl = side_col l and cr = side_col r in
      let xl, xr = Column.pair_eq_codes cl cr in
      let keep_eq = p.op = Eq in
      fun i j ->
        let il = side_idx l i j and ir = side_idx r i j in
        (not (Column.is_null cl il))
        && (not (Column.is_null cr ir))
        && (Array.unsafe_get xl il = Array.unsafe_get xr ir) = keep_eq
  | Eq, ((`A _ | `B _) as s), `V v | Eq, `V v, ((`A _ | `B _) as s) ->
      let m = const_eq_matcher (side_col s) v in
      fun i j -> m (side_idx s i j)
  | Neq, ((`A _ | `B _) as s), `V v | Neq, `V v, ((`A _ | `B _) as s) ->
      let m = const_neq_matcher (side_col s) v in
      fun i j -> m (side_idx s i j)
  | op, l, r ->
      let getter = function
        | (`A c | `B c) as s ->
            let g = Column.getter c in
            fun i j -> g (side_idx s i j)
        | `V v -> fun _ _ -> v
      in
      let gl = getter l and gr = getter r in
      fun i j -> Tvl.to_bool (eval_op op (gl i j) (gr i j))

let rec all_hold2 ms i j =
  match ms with [] -> true | m :: ms -> m i j && all_hold2 ms i j

let rec any_holds2 ms i j =
  match ms with [] -> false | m :: ms -> m i j || any_holds2 ms i j

let pair_matcher ta tb = function
  | All [ p ] | Any [ p ] -> pair_pred_matcher ta tb p
  | All ps -> all_hold2 (List.map (pair_pred_matcher ta tb) ps)
  | Any ps -> any_holds2 (List.map (pair_pred_matcher ta tb) ps)

let rec exec inst needed plan =
  Obs.Progress.tick ();
  match plan with
  | Scan { rel; args; tid } -> exec_scan inst needed ~rel ~args ~tid
  | Table tbl ->
      Obs.Counter.incr c_scan_columnar;
      restrict_cols tbl needed
  | Filter (f, Join (a, b)) -> exec_join inst needed (Some f) a b
  | Filter (f, p) -> (
      let tbl = exec inst (union_needed needed (pred_cols (filter_preds f))) p in
      match live_filter (Columnar.column tbl) f with
      | None -> restrict_cols tbl needed
      | Some f ->
          let sel = select_rows (Columnar.length tbl) (filter_matcher tbl f) in
          (* Restrict before gathering: matcher columns were resolved
             above, so rows are only copied for the columns the parent
             keeps. *)
          Columnar.select (restrict_cols tbl needed) sel)
  | Join (a, b) -> exec_join inst needed None a b
  | Semijoin (a, b) | Antijoin (a, b) ->
      let anti = match plan with Antijoin _ -> true | _ -> false in
      let shared =
        let ca = cols a in
        List.filter (fun c -> List.mem c ca) (cols b)
      in
      let ta = exec inst (union_needed needed shared) a in
      if shared = [] then
        (* Degenerate: the right side is a boolean gate. *)
        let tb = exec inst (Some []) b in
        let pass = (Columnar.length tb > 0) <> anti in
        restrict_cols
          (if pass then ta else Columnar.select ta [||])
          needed
      else
        let tb = exec inst (Some shared) b in
        let sel = presence_sel ~anti ta tb shared in
        Columnar.select (restrict_cols ta needed) sel
  | Project (names, p) ->
      let tbl = exec inst (Some names) p in
      let out_names = keep names needed in
      Columnar.make
        (Array.of_list out_names)
        (Array.of_list (List.map (Columnar.column tbl) out_names))
        (Columnar.length tbl)
  | Distinct p -> restrict_cols (distinct_table (exec inst None p)) needed
  | Union (a, b) ->
      let ta = exec inst None a and tb = exec inst None b in
      if Array.length (Columnar.cols ta) <> Array.length (Columnar.cols tb)
      then invalid_arg "Plan.Union: arity mismatch";
      let combined =
        Columnar.make (Columnar.cols ta)
          (Array.map2 Column.concat (Columnar.columns ta) (Columnar.columns tb))
          (Columnar.length ta + Columnar.length tb)
      in
      restrict_cols (distinct_table combined) needed
  | Diff (a, b) ->
      let ta = exec inst None a and tb = exec inst None b in
      if Array.length (Columnar.cols ta) <> Array.length (Columnar.cols tb)
      then invalid_arg "Plan.Diff: arity mismatch";
      (* NULL = NULL here: the paired codes carry NULL as Null's code,
         so no row is left out of the index. *)
      let xa, xb =
        Array.split
          (Array.map2 Column.pair_eq_codes (Columnar.columns ta) (Columnar.columns tb))
      in
      let ix = Keys.build xb (Columnar.length tb) [||] in
      Obs.Counter.add c_probe_rows (Columnar.length ta);
      let sel = exact (presence_keys ix xa [||] (Columnar.length ta) true) in
      restrict_cols (distinct_table (Columnar.select ta sel)) needed

(* A join, fused with the filter [f] when there is one: the predicates
   are tested on candidate pairs inside the probe, so only surviving
   rows are gathered — and only the columns an ancestor needs, which
   after a projection can be far fewer than the predicates touch.  A
   filter [live_filter] proves true on every pair is not tested. *)
and exec_join inst needed f a b =
  let shared =
    let ca = cols a in
    List.filter (fun c -> List.mem c ca) (cols b)
  in
  let fcols = match f with None -> [] | Some f -> pred_cols (filter_preds f) in
  let child_needed = union_needed (union_needed needed fcols) shared in
  let ta = exec inst child_needed a in
  let tb = exec inst child_needed b in
  let a_names = Array.to_list (Columnar.cols ta) in
  let test =
    let column nm =
      Columnar.column (if List.mem nm a_names then ta else tb) nm
    in
    Option.map (pair_matcher ta tb) (Option.bind f (live_filter column))
  in
  let ia, ib = match_pairs ?keep:test ta tb shared in
  let b_names =
    List.filter
      (fun c -> not (List.mem c shared))
      (Array.to_list (Columnar.cols tb))
  in
  let out_names = keep (a_names @ b_names) needed in
  let out_col nm =
    if List.mem nm a_names then Column.gather (Columnar.column ta nm) ia
    else Column.gather (Columnar.column tb nm) ib
  in
  Columnar.make
    (Array.of_list out_names)
    (Array.of_list (List.map out_col out_names))
    (Array.length ia)

let run ?needed inst plan = exec inst needed plan
