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
   The build side is always the right input.  Multi-key joins hash
   their key tuples per call.

   Counters: [scan.columnar] per scan executed, [join.fused] per fused
   hash-join/semijoin/antijoin kernel, [join.index_builds] (counted in
   {!Column}) per single-key join index built — kept on its column, or
   for one join when the codes were re-encoded. *)

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

(* --- small growable int buffer -------------------------------------- *)

module Ibuf = struct
  (* The slots fill one array, doubled up to [chunk] slots; past that,
     full chunks are set aside and a fresh one started.  No piece is
     larger than the minor heap takes (256 words), so a buffer that
     grows to n slots leaves only minor garbage behind, and [contents]
     is the one exact-size copy. *)
  type t = {
    mutable full : int array list; (* chunks of [chunk] slots, newest first *)
    mutable nfull : int; (* slots in [full] *)
    mutable a : int array;
    mutable n : int;
  }

  let chunk = 256

  let create () = { full = []; nfull = 0; a = Array.make 64 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then
      if b.n < chunk then begin
        let a' = Array.make (2 * b.n) 0 in
        Array.blit b.a 0 a' 0 b.n;
        b.a <- a'
      end
      else begin
        b.full <- b.a :: b.full;
        b.nfull <- b.nfull + b.n;
        b.a <- Array.make chunk 0;
        b.n <- 0
      end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let contents b =
    match b.full with
    | [] -> Array.sub b.a 0 b.n
    | full ->
        let out = Array.make (b.nfull + b.n) 0 in
        Array.blit b.a 0 out b.nfull b.n;
        List.iteri
          (fun i c -> Array.blit c 0 out (b.nfull - ((i + 1) * chunk)) chunk)
          full;
        out
end

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

let filter_matcher tbl = function
  | All ps ->
      let ms = List.map (pred_matcher tbl) ps in
      fun i -> List.for_all (fun m -> m i) ms
  | Any ps ->
      let ms = List.map (pred_matcher tbl) ps in
      fun i -> List.exists (fun m -> m i) ms

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

module Itbl = Hashtbl.Make (Int)

(* Open-addressing int→int hash table for the dedup kernel's ranks:
   linear probing over two flat arrays, no boxing, no per-probe
   allocation (stdlib [Hashtbl.find_opt] allocates an option per
   probe, and a local recursive probe a closure).  Values must be ≥ 0;
   [vals.(slot) = -1] marks an empty slot. *)
module Iot = struct
  type t = { keys : int array; vals : int array; mask : int }

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := !cap * 2
    done;
    { keys = Array.make !cap 0; vals = Array.make !cap (-1); mask = !cap - 1 }

  (* Fibonacci hashing on the upper bits keeps clustered keys spread. *)
  let slot t k = (k * 0x2545F4914F6CDD1D) lsr 8 land t.mask

  (* The slot bound to [k], or the empty slot where it would go. *)
  let rec probe keys vals mask k s =
    if Array.unsafe_get vals s = -1 || Array.unsafe_get keys s = k then s
    else probe keys vals mask k ((s + 1) land mask)

  (* The value bound to [k], or -1. *)
  let find t k = Array.unsafe_get t.vals (probe t.keys t.vals t.mask k (slot t k))

  (* Binds [k] to [v ≥ 0], overwriting any previous binding. *)
  let replace t k v =
    let s = probe t.keys t.vals t.mask k (slot t k) in
    Array.unsafe_set t.keys s k;
    Array.unsafe_set t.vals s v
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

(* Value-order ranks for the cells of [c] selected by [idx]: an int per
   selected row such that rank comparison coincides with [Value.compare]
   on the decoded cells, paired with a radix bound (ranks all sit in
   [0, radix) when the bound is finite-ish).  Int columns rank by the
   raw value shifted to zero — no hashing, no boxing; other columns
   dense-rank their distinct codes, decoding each distinct value once.
   A [max_int] radix marks ranks usable for comparison but not for
   radix packing (sparse ints whose range overflows). *)
let value_ranks (c : Column.t) codes (idx : int array) =
  match c.Column.data with
  | Column.Ints a when not (Column.has_nulls c) ->
      if Array.length idx = 0 then ([||], 1)
      else begin
        let mn = ref max_int and mx = ref min_int in
        Array.iter
          (fun i ->
            let v = Array.unsafe_get a i in
            if v < !mn then mn := v;
            if v > !mx then mx := v)
          idx;
        let mn = !mn and range = !mx - !mn + 1 in
        if range > 0 then (Array.map (fun i -> a.(i) - mn) idx, range)
        else (Array.map (fun i -> a.(i)) idx, max_int)
      end
  | _ ->
      let n_idx = Array.length idx in
      let seen = Iot.create (max 16 n_idx) in
      let uniq = ref [] in
      Array.iter
        (fun i ->
          let code = codes.(i) in
          if Iot.find seen code = -1 then begin
            Iot.replace seen code 0;
            uniq := (code, Column.get c i) :: !uniq
          end)
        idx;
      let sorted = List.sort (fun (_, a) (_, b) -> Value.compare a b) !uniq in
      let rank = Iot.create (max 16 n_idx) in
      List.iteri (fun r (code, _) -> Iot.replace rank code r) sorted;
      (Array.map (fun i -> Iot.find rank codes.(i)) idx, List.length sorted)

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
    let idx_all = Array.init n Fun.id in
    let rr = Array.init k (fun j -> value_ranks columns.(j) keys.(j) idx_all) in
    let ranks = Array.map fst rr and radix = Array.map snd rr in
    let fits =
      Array.fold_left (fun acc m -> acc *. float_of_int m) (float_of_int n) radix
      < 1e18
    in
    if fits then begin
      let packed =
        Array.init n (fun i ->
            let rec go j acc =
              if j >= k then acc else go (j + 1) ((acc * radix.(j)) + (ranks.(j)).(i))
            in
            (go 0 0 * n) + i)
      in
      sort_ints packed;
      let sel = Ibuf.create () in
      let prev = ref (-1) in
      Array.iter
        (fun p ->
          let comp = p / n in
          if comp <> !prev then begin
            prev := comp;
            Ibuf.push sel (p mod n)
          end)
        packed;
      Columnar.select tbl (Ibuf.contents sel)
    end
    else begin
      let sel = Ibuf.create () in
      let seen : (int array, unit) Hashtbl.t = Hashtbl.create (max 16 n) in
      for i = 0 to n - 1 do
        let key = Array.init k (fun j -> (keys.(j)).(i)) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          Ibuf.push sel i
        end
      done;
      let idx = Ibuf.contents sel in
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
        let sel = Ibuf.create () in
        let matcher i = List.for_all (fun m -> m i) ms in
        for i = 0 to Columnar.length base - 1 do
          if matcher i then Ibuf.push sel i
        done;
        let idx = Ibuf.contents sel in
        Columnar.make
          (Array.of_list out_names)
          (Array.of_list
             (List.map (fun nm -> Column.gather base_cols.(pick nm) idx) out_names))
          (Array.length idx)
  end

(* --- joins ----------------------------------------------------------- *)

(* Matching row-index pairs of [ta] ⋈ [tb] on [shared], in nested-loop
   order: [ta]-major, [tb] ascending within each [ta] row.  The hash
   table is chained through a [next] array built back-to-front, so each
   probe walks its matches in ascending [tb] order. *)
let match_pairs ta tb shared =
  let na = Columnar.length ta and nb = Columnar.length tb in
  let ia = Ibuf.create () and ib = Ibuf.create () in
  (match shared with
  | [] ->
      for i = 0 to na - 1 do
        for j = 0 to nb - 1 do
          Ibuf.push ia i;
          Ibuf.push ib j
        done
      done
  | [ key ] ->
      Obs.Counter.incr c_join_fused;
      let ca = Columnar.column ta key and cb = Columnar.column tb key in
      let xa, xb = Column.pair_eq_codes ca cb in
      let ix = Column.index cb xb in
      for i = 0 to na - 1 do
        if not (Column.is_null ca i) then begin
          let j = ref (Column.index_find ix xa.(i)) in
          while !j >= 0 do
            Ibuf.push ia i;
            Ibuf.push ib !j;
            j := Column.index_next ix !j
          done
        end
      done
  | keys ->
      Obs.Counter.incr c_join_fused;
      let pairs =
        List.map
          (fun nm ->
            let ca = Columnar.column ta nm and cb = Columnar.column tb nm in
            (ca, cb, Column.pair_eq_codes ca cb))
          keys
      in
      let k = List.length pairs in
      let cas = Array.of_list (List.map (fun (c, _, _) -> c) pairs) in
      let cbs = Array.of_list (List.map (fun (_, c, _) -> c) pairs) in
      let xas = Array.of_list (List.map (fun (_, _, (x, _)) -> x) pairs) in
      let xbs = Array.of_list (List.map (fun (_, _, (_, x)) -> x) pairs) in
      let null_at cs i =
        let rec go j = j < k && (Column.is_null cs.(j) i || go (j + 1)) in
        go 0
      in
      let head : (int array, int) Hashtbl.t = Hashtbl.create (max 16 nb) in
      let next = Array.make (max 1 nb) (-1) in
      for j = nb - 1 downto 0 do
        if not (null_at cbs j) then begin
          let key = Array.init k (fun p -> (xbs.(p)).(j)) in
          (match Hashtbl.find_opt head key with
          | Some h -> next.(j) <- h
          | None -> ());
          Hashtbl.replace head key j
        end
      done;
      for i = 0 to na - 1 do
        if not (null_at cas i) then begin
          let key = Array.init k (fun p -> (xas.(p)).(i)) in
          match Hashtbl.find_opt head key with
          | None -> ()
          | Some h ->
              let j = ref h in
              while !j >= 0 do
                Ibuf.push ia i;
                Ibuf.push ib !j;
                j := next.(!j)
              done
        end
      done);
  (Ibuf.contents ia, Ibuf.contents ib)

(* Row indexes of [ta] that have (or lack) a [shared]-match in [tb].
   NULL keys never match: the semijoin drops them, the antijoin keeps
   them. *)
let presence_sel ~anti ta tb shared =
  Obs.Counter.incr c_join_fused;
  let nb = Columnar.length tb in
  match shared with
  | [ key ] ->
      (* Single-column membership: a probe of the build column's
         index, no per-row key allocation. *)
      let ca = Columnar.column ta key and cb = Columnar.column tb key in
      let xa, xb = Column.pair_eq_codes ca cb in
      let ix = Column.index cb xb in
      let sel = Ibuf.create () in
      for i = 0 to Columnar.length ta - 1 do
        let matched =
          (not (Column.is_null ca i)) && Column.index_find ix xa.(i) >= 0
        in
        if matched <> anti then Ibuf.push sel i
      done;
      Ibuf.contents sel
  | _ ->
  let pairs =
    List.map
      (fun nm ->
        let ca = Columnar.column ta nm and cb = Columnar.column tb nm in
        (ca, cb, Column.pair_eq_codes ca cb))
      shared
  in
  let k = List.length pairs in
  let cas = Array.of_list (List.map (fun (c, _, _) -> c) pairs) in
  let cbs = Array.of_list (List.map (fun (_, c, _) -> c) pairs) in
  let xas = Array.of_list (List.map (fun (_, _, (x, _)) -> x) pairs) in
  let xbs = Array.of_list (List.map (fun (_, _, (_, x)) -> x) pairs) in
  let null_at cs i =
    let rec go j = j < k && (Column.is_null cs.(j) i || go (j + 1)) in
    go 0
  in
  let present : (int array, unit) Hashtbl.t = Hashtbl.create (max 16 nb) in
  for j = 0 to nb - 1 do
    if not (null_at cbs j) then
      Hashtbl.replace present (Array.init k (fun p -> (xbs.(p)).(j))) ()
  done;
  let sel = Ibuf.create () in
  for i = 0 to Columnar.length ta - 1 do
    let matched =
      (not (null_at cas i))
      && Hashtbl.mem present (Array.init k (fun p -> (xas.(p)).(i)))
    in
    if matched <> anti then Ibuf.push sel i
  done;
  Ibuf.contents sel

(* --- execution ------------------------------------------------------- *)

let union_needed needed extra =
  match needed with None -> None | Some ns -> Some (extra @ ns)

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

let rec exec inst needed plan =
  match plan with
  | Scan { rel; args; tid } -> exec_scan inst needed ~rel ~args ~tid
  | Table tbl ->
      Obs.Counter.incr c_scan_columnar;
      restrict_cols tbl needed
  | Filter (f, Join (a, b)) ->
      (* Fused: evaluate the predicates on candidate pairs and gather
         only surviving rows — and only the columns an ancestor needs,
         which after a projection can be far fewer than the predicate
         touches. *)
      let shared =
        let ca = cols a in
        List.filter (fun c -> List.mem c ca) (cols b)
      in
      let fcols = pred_cols (match f with All ps | Any ps -> ps) in
      let child_needed = union_needed (union_needed needed fcols) shared in
      let ta = exec inst child_needed a in
      let tb = exec inst child_needed b in
      let ia, ib = match_pairs ta tb shared in
      let matcher =
        match f with
        | All ps ->
            let ms = List.map (pair_pred_matcher ta tb) ps in
            fun i j -> List.for_all (fun m -> m i j) ms
        | Any ps ->
            let ms = List.map (pair_pred_matcher ta tb) ps in
            fun i j -> List.exists (fun m -> m i j) ms
      in
      let sa = Ibuf.create () and sb = Ibuf.create () in
      Array.iteri
        (fun k i ->
          let j = ib.(k) in
          if matcher i j then begin
            Ibuf.push sa i;
            Ibuf.push sb j
          end)
        ia;
      let ia = Ibuf.contents sa and ib = Ibuf.contents sb in
      let a_names = Array.to_list (Columnar.cols ta) in
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
  | Filter (f, p) ->
      let fcols = pred_cols (match f with All ps | Any ps -> ps) in
      let tbl = exec inst (union_needed needed fcols) p in
      let matcher = filter_matcher tbl f in
      let sel = Ibuf.create () in
      for i = 0 to Columnar.length tbl - 1 do
        if matcher i then Ibuf.push sel i
      done;
      (* Restrict before gathering: matcher columns were resolved above,
         so rows are only copied for the columns the parent keeps. *)
      Columnar.select (restrict_cols tbl needed) (Ibuf.contents sel)
  | Join (a, b) ->
      let shared =
        let ca = cols a in
        List.filter (fun c -> List.mem c ca) (cols b)
      in
      let ta = exec inst (union_needed needed shared) a in
      let tb = exec inst (union_needed needed shared) b in
      let ia, ib = match_pairs ta tb shared in
      let a_names = Array.to_list (Columnar.cols ta) in
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
      let ka = Array.length (Columnar.cols ta)
      and kb = Array.length (Columnar.cols tb) in
      if ka <> kb then invalid_arg "Plan.Diff: arity mismatch";
      let codes =
        Array.init ka (fun j ->
            Column.pair_eq_codes (Columnar.columns ta).(j) (Columnar.columns tb).(j))
      in
      let sel = Ibuf.create () in
      (if ka = 1 then begin
         let xa, xb = codes.(0) in
         let bset = Itbl.create (max 16 (Columnar.length tb)) in
         for j = 0 to Columnar.length tb - 1 do
           Itbl.replace bset xb.(j) ()
         done;
         for i = 0 to Columnar.length ta - 1 do
           if not (Itbl.mem bset xa.(i)) then Ibuf.push sel i
         done
       end
       else begin
         let bset : (int array, unit) Hashtbl.t =
           Hashtbl.create (max 16 (Columnar.length tb))
         in
         for j = 0 to Columnar.length tb - 1 do
           Hashtbl.replace bset (Array.init ka (fun p -> (snd codes.(p)).(j))) ()
         done;
         for i = 0 to Columnar.length ta - 1 do
           if not (Hashtbl.mem bset (Array.init ka (fun p -> (fst codes.(p)).(i))))
           then Ibuf.push sel i
         done
       end);
      restrict_cols
        (distinct_table (Columnar.select ta (Ibuf.contents sel)))
        needed

let run ?needed inst plan = exec inst needed plan
