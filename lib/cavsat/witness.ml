module Value = Relational.Value
module Cq = Logic.Cq
module Plan = Relational.Plan
module Columnar = Relational.Columnar
module Column = Relational.Column

type t = { tids : int array; width : int; offs : int array }
type candidate = { row : Value.t list; first : int; last : int }

let start w i = if w.width >= 0 then i * w.width else w.offs.(i)
let stop w i = if w.width >= 0 then (i + 1) * w.width else w.offs.(i + 1)

let sets w c =
  List.init (c.last - c.first) (fun i ->
      let lo = start w (c.first + i) in
      Array.init (stop w (c.first + i) - lo) (fun j ->
          Relational.Tid.of_int w.tids.(lo + j)))

module Rows = Map.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* Write the distinct tids of row [r] of the tid columns into [dst] from
   [pos], ascending (insertion: one tid per body atom, so a handful at
   most), and return how many there are. *)
let sorted_row (cols : int array array) r (dst : int array) pos =
  let k = ref 0 in
  for i = 0 to Array.length cols - 1 do
    let t = cols.(i).(r) in
    let j = ref (!k - 1) in
    while !j >= 0 && dst.(pos + !j) > t do
      decr j
    done;
    if !j < 0 || dst.(pos + !j) <> t then begin
      for m = pos + !k - 1 downto pos + !j + 1 do
        dst.(m + 1) <- dst.(m)
      done;
      dst.(pos + !j + 1) <- t;
      incr k
    end
  done;
  !k

(* Lexicographic, a proper prefix first: {!Relational.Tid.Sorted.compare}
   on two slices. *)
let compare_slices (a : int array) pa la (b : int array) pb lb =
  let m = min la lb in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < m do
    c := Int.compare a.(pa + !i) b.(pb + !i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare la lb

(* The candidates of an arena's sets [0, count), given as (candidate,
   first set) pairs, newest first: each runs up to the next one's first
   set. *)
let candidates count firsts row_of =
  snd
    (List.fold_left
       (fun (last, acc) (cand, first) ->
         (first, { row = row_of cand; first; last } :: acc))
       (count, []) firsts)

let empty = { tids = [||]; width = 0; offs = [||] }

(* Candidate answers of [q] on the (inconsistent) instance, each with
   the distinct tid sets of its witnesses — the body matches that
   produce the answer — read off the compiled body with one [#tid<i>]
   column per atom.  An answer row is in a given repair iff one of its
   witness tid sets survives there, so the witness sets are all the
   query layer needs.

   Each row's set is sorted into place in a stride-[k] array and
   compared with the previous row's, candidate first.  When every row
   has [k] distinct tids and the rows arrive strictly ascending (a join
   emits its matches outer-major, so a body whose atoms load in order
   usually does), that array is the arena.  Otherwise the distinct sets
   are copied into an exact-size arena, in row order when the rows
   ascend with repeats, else through a sorted index permutation.  A
   Boolean head gives every row one candidate; only a head with
   variables decodes values, to rank the distinct rows in [Cq.answers]
   order. *)
let answers_with_witnesses (q : Cq.t) inst =
  let plan, find = Cq.compile_body ~tids:true q.body q.comps in
  let k = List.length q.body in
  let vars = Cq.head_vars q in
  let table =
    Plan.run inst
      (Plan.Project (List.init k Cq.tid_col @ Cq.rep_cols find vars, plan))
  in
  let cols = Cq.tid_columns table k in
  let n = Columnar.length table in
  if n = 0 then (empty, [])
  else begin
    (* [cand.(r)]: the rank of row [r]'s answer among the distinct
       answers; [row_of rank] that answer. *)
    let cand, row_of =
      if vars = [] then
        let row =
          List.map
            (function Logic.Term.Const v -> v | Var _ -> assert false)
            q.head
        in
        (None, fun _ -> row)
      else begin
        let head =
          List.map
            (function
              | Logic.Term.Const v -> Fun.const v
              | Logic.Term.Var x ->
                  Column.getter (Columnar.column table (find x)))
            q.head
        in
        let ids = ref Rows.empty and cand = Array.make n 0 in
        for r = 0 to n - 1 do
          let key = List.map (fun get -> get r) head in
          match Rows.find_opt key !ids with
          | Some id -> cand.(r) <- id
          | None ->
              let id = Rows.cardinal !ids in
              ids := Rows.add key id !ids;
              cand.(r) <- id
        done;
        let rank = Array.make (Rows.cardinal !ids) 0 in
        let rows = Array.of_list (Rows.bindings !ids) in
        Array.iteri (fun i (_, id) -> rank.(id) <- i) rows;
        Array.iteri (fun r id -> cand.(r) <- rank.(id)) cand;
        (Some cand, fun i -> fst rows.(i))
      end
    in
    let cand_at r = match cand with None -> 0 | Some c -> c.(r) in
    (* [lens] is allocated once some row has fewer than [k] tids. *)
    let rows = Array.make (n * k) 0 and lens = ref [||] in
    let len r = if Array.length !lens = 0 then k else !lens.(r) in
    let cmp r s =
      let c = Int.compare (cand_at r) (cand_at s) in
      if c <> 0 then c
      else compare_slices rows (r * k) (len r) rows (s * k) (len s)
    in
    let ascending = ref true and repeats = ref false in
    for r = 0 to n - 1 do
      let l = sorted_row cols r rows (r * k) in
      if l <> k then begin
        if Array.length !lens = 0 then lens := Array.make n k;
        !lens.(r) <- l
      end;
      if r > 0 && !ascending then begin
        let c = cmp (r - 1) r in
        if c > 0 then ascending := false else if c = 0 then repeats := true
      end
    done;
    let fixed = Array.length !lens = 0 in
    if !ascending && (not !repeats) && fixed then begin
      let firsts = ref [ (cand_at 0, 0) ] in
      for r = 1 to n - 1 do
        if cand_at r <> cand_at (r - 1) then firsts := (cand_at r, r) :: !firsts
      done;
      ({ tids = rows; width = k; offs = [||] }, candidates n !firsts row_of)
    end
    else begin
      let perm =
        if !ascending then None
        else begin
          let perm = Array.init n Fun.id in
          Array.sort cmp perm;
          Some perm
        end
      in
      let at p = match perm with None -> p | Some perm -> perm.(p) in
      (* Position [p] starts a new set unless it repeats [p - 1]. *)
      let fresh p = p = 0 || cmp (at (p - 1)) (at p) <> 0 in
      let sets = ref 0 and size = ref 0 in
      for p = 0 to n - 1 do
        if fresh p then begin
          incr sets;
          size := !size + len (at p)
        end
      done;
      let tids = Array.make !size 0 in
      let offs = if fixed then [||] else Array.make (!sets + 1) !size in
      let i = ref 0 and pos = ref 0 and firsts = ref [] in
      for p = 0 to n - 1 do
        let r = at p in
        if fresh p then begin
          if p = 0 || cand_at r <> cand_at (at (p - 1)) then
            firsts := (cand_at r, !i) :: !firsts;
          if not fixed then offs.(!i) <- !pos;
          for j = 0 to len r - 1 do
            tids.(!pos + j) <- rows.((r * k) + j)
          done;
          pos := !pos + len r;
          incr i
        end
      done;
      ( { tids; width = (if fixed then k else -1); offs },
        candidates !sets !firsts row_of )
    end
  end

(* A union's candidates: a row is in a repair iff a witness of some
   disjunct survives there, so each row's sets are those of every
   disjunct producing it, deduplicated, in one exact-size arena. *)
module Sets = Set.Make (struct
  type t = int array

  let compare a b = compare_slices a 0 (Array.length a) b 0 (Array.length b)
end)

let of_ucq (u : Logic.Ucq.t) inst =
  match List.map (fun q -> answers_with_witnesses q inst) u.disjuncts with
  | [ one ] -> one
  | parts ->
      let add w m c =
        let set i = Array.sub w.tids (start w i) (stop w i - start w i) in
        let old = Option.value ~default:Sets.empty (Rows.find_opt c.row m) in
        Rows.add c.row
          (Seq.fold_left
             (fun s i -> Sets.add (set i) s)
             old
             (Seq.init (c.last - c.first) (( + ) c.first)))
          m
      in
      let rows =
        List.fold_left
          (fun m (w, cs) -> List.fold_left (add w) m cs)
          Rows.empty parts
        |> Rows.bindings
      in
      let sets = List.concat_map (fun (_, s) -> Sets.elements s) rows in
      let offs = Array.make (List.length sets + 1) 0 in
      List.iteri (fun i s -> offs.(i + 1) <- offs.(i) + Array.length s) sets;
      let _, candidates =
        List.fold_left_map
          (fun first (row, s) ->
            let last = first + Sets.cardinal s in
            (last, { row; first; last }))
          0 rows
      in
      ({ tids = Array.concat sets; width = -1; offs }, candidates)
