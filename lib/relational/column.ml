(* One typed column: a dense array of unboxed cells plus a NULL bitmap.

   The representation is picked per column when the column is built:
   homogeneous primitive columns keep their native arrays (no [Value.t]
   boxing on the scan loop), everything else — strings, mixed types —
   is dictionary-coded through the global {!Dict}.  NULL is carried
   out-of-band in the bitmap; the cell under a null slot is a dummy (0
   for primitives, the code of [Value.Null] for coded columns), so
   kernels must consult the bitmap before trusting a cell.

   A column also carries the hash index that single-key joins build
   over it (see "join index" below), filled at the first join that
   builds over the column and read by every later one, and the count of
   rows joins probed from it, which decides when that index is earned. *)

type data =
  | Ints of int array
  | Reals of float array
  | Bools of bool array
  | Codes of int array (* global Dict codes; null slots hold Null's code *)

(* A chained hash index over [codes]: [slots] (a power of two, at least
   twice the rows) holds the first row of each key's chain or -1, and
   [next] links each row to the next row with its key, in ascending row
   order.  Keys are read from [codes] itself, so the index costs
   |slots| + |rows| words. *)
type index = { codes : int array; slots : int array; next : int array }

type t = {
  data : data;
  nulls : Bytes.t;
  has_nulls : bool;
  mutable index : index option;
  mutable probed : int;
}

(* --- NULL bitmap ---------------------------------------------------- *)

let bitmap n = Bytes.make ((n + 7) lsr 3) '\000'

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let bit_get b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let is_null c i = bit_get c.nulls i

(* Columns are immutable, so whether any slot is NULL is read off the
   bitmap once, when the column is made. *)
let make data nulls =
  let n = Bytes.length nulls in
  let rec any i = i < n && (Bytes.unsafe_get nulls i <> '\000' || any (i + 1)) in
  { data; nulls; has_nulls = any 0; index = None; probed = 0 }

let has_nulls c = c.has_nulls

let length c =
  match c.data with
  | Ints a -> Array.length a
  | Reals a -> Array.length a
  | Bools a -> Array.length a
  | Codes a -> Array.length a

(* --- construction --------------------------------------------------- *)

let of_ints a = make (Ints a) (bitmap (Array.length a))

let of_values (vals : Value.t array) =
  let n = Array.length vals in
  let nulls = bitmap n in
  Array.iteri (fun i v -> if Value.is_null v then bit_set nulls i) vals;
  let all p =
    Array.for_all (fun v -> Value.is_null v || p v) vals
  in
  let data =
    if all (function Value.Int _ -> true | _ -> false) then
      Ints (Array.map (function Value.Int x -> x | _ -> 0) vals)
    else if all (function Value.Real _ -> true | _ -> false) then
      Reals (Array.map (function Value.Real x -> x | _ -> 0.) vals)
    else if all (function Value.Bool _ -> true | _ -> false) then
      Bools (Array.map (function Value.Bool x -> x | _ -> false) vals)
    else Codes (Array.map Dict.intern vals)
  in
  make data nulls

(* Row-major input, one column per attribute position: every column
   starts as [Ints] and is filled unboxed in the same pass over the rows;
   one that meets a non-[Int] cell is rebuilt by [of_values] afterwards,
   so every column is exactly the one [of_values] picks. *)
let of_rows arity (rows : Value.t array array) =
  let n = Array.length rows in
  let cells = Array.init arity (fun _ -> Array.make n 0) in
  let nulls = Array.init arity (fun _ -> bitmap n) in
  let ints = Array.make arity true in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    for j = 0 to arity - 1 do
      match row.(j) with
      | Value.Int x -> Array.unsafe_set cells.(j) i x
      | Value.Null -> bit_set nulls.(j) i
      | Value.Real _ | Value.Str _ | Value.Bool _ -> ints.(j) <- false
    done
  done;
  Array.init arity (fun j ->
      if ints.(j) then make (Ints cells.(j)) nulls.(j)
      else of_values (Array.init n (fun i -> rows.(i).(j))))

(* --- decoding ------------------------------------------------------- *)

(* A decode closure resolving the variant dispatch once per column, not
   once per cell. *)
let getter c =
  let nulls = c.nulls in
  match c.data with
  | Ints a ->
      fun i -> if bit_get nulls i then Value.Null else Value.Int a.(i)
  | Reals a ->
      fun i -> if bit_get nulls i then Value.Null else Value.Real a.(i)
  | Bools a ->
      fun i -> if bit_get nulls i then Value.Null else Value.Bool a.(i)
  | Codes a -> fun i -> Dict.value a.(i)

let get c i = getter c i

(* --- kernel helpers ------------------------------------------------- *)

(* Plain loops, one per representation: no closure call per row, and
   nothing allocated but the output cells and bitmap. *)
let gather_ints (a : int array) idx =
  let n = Array.length idx in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
  done;
  out

let gather_reals (a : float array) idx =
  let n = Array.length idx in
  let out = Array.create_float n in
  for k = 0 to n - 1 do
    Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
  done;
  out

let gather_bools (a : bool array) idx =
  let n = Array.length idx in
  let out = Array.make n false in
  for k = 0 to n - 1 do
    Array.unsafe_set out k (Array.unsafe_get a (Array.unsafe_get idx k))
  done;
  out

let gather c (idx : int array) =
  let n = Array.length idx in
  let nulls = bitmap n in
  if has_nulls c then
    for k = 0 to n - 1 do
      if bit_get c.nulls (Array.unsafe_get idx k) then bit_set nulls k
    done;
  let data =
    match c.data with
    | Ints a -> Ints (gather_ints a idx)
    | Reals a -> Reals (gather_reals a idx)
    | Bools a -> Bools (gather_bools a idx)
    | Codes a -> Codes (gather_ints a idx)
  in
  make data nulls

let concat a b =
  let na = length a and nb = length b in
  match a.data, b.data with
  | Ints x, Ints y | Codes x, Codes y ->
      let data =
        match a.data with
        | Ints _ -> Ints (Array.append x y)
        | _ -> Codes (Array.append x y)
      in
      let nulls = bitmap (na + nb) in
      for i = 0 to na - 1 do
        if bit_get a.nulls i then bit_set nulls i
      done;
      for i = 0 to nb - 1 do
        if bit_get b.nulls i then bit_set nulls (na + i)
      done;
      make data nulls
  | Reals x, Reals y ->
      let nulls = bitmap (na + nb) in
      for i = 0 to na - 1 do
        if bit_get a.nulls i then bit_set nulls i
      done;
      for i = 0 to nb - 1 do
        if bit_get b.nulls i then bit_set nulls (na + i)
      done;
      make (Reals (Array.append x y)) nulls
  | Bools x, Bools y ->
      let nulls = bitmap (na + nb) in
      for i = 0 to na - 1 do
        if bit_get a.nulls i then bit_set nulls i
      done;
      for i = 0 to nb - 1 do
        if bit_get b.nulls i then bit_set nulls (na + i)
      done;
      make (Bools (Array.append x y)) nulls
  | _ ->
      let ga = getter a and gb = getter b in
      of_values
        (Array.init (na + nb) (fun i ->
             if i < na then ga i else gb (i - na)))

(* Codes such that within this column, code equality coincides with
   [Value.equal] — including Null = Null (null slots share Null's
   dictionary code).  Primitive columns without nulls compare raw;
   anything else goes through the dictionary, whose codes are injective
   over values. *)
let eq_codes c =
  match c.data with
  | Codes a -> a
  | Ints a when not (has_nulls c) -> a
  | Bools a when not (has_nulls c) ->
      Array.map (fun b -> if b then 1 else 0) a
  | _ ->
      let g = getter c in
      Array.init (length c) (fun i -> Dict.intern (g i))

(* Same contract across two columns: codes comparable between [a] and
   [b].  Raw primitive arrays are only safe when both sides share the
   representation (and carry no nulls); otherwise both sides are
   re-expressed as global dictionary codes. *)
let pair_eq_codes a b =
  match a.data, b.data with
  | Codes x, Codes y -> (x, y)
  | Ints x, Ints y when (not (has_nulls a)) && not (has_nulls b) -> (x, y)
  | Bools x, Bools y when (not (has_nulls a)) && not (has_nulls b) ->
      let enc = Array.map (fun v -> if v then 1 else 0) in
      (enc x, enc y)
  | _ ->
      let enc c =
        match c.data with
        | Codes a -> a
        | _ ->
            let g = getter c in
            Array.init (length c) (fun i -> Dict.intern (g i))
      in
      (enc a, enc b)

(* --- join index ----------------------------------------------------- *)

let c_index_builds = Obs.Counter.make "join.index_builds"

(* Fibonacci hashing on the upper bits keeps clustered keys spread. *)
let hash k mask = (k * 0x2545F4914F6CDD1D) lsr 8 land mask

(* The slot holding [k]'s chain, or the empty slot where it would go.
   Top-level, so a probe allocates no closure. *)
let rec slot_of codes slots mask k s =
  let h = Array.unsafe_get slots s in
  if h < 0 || Array.unsafe_get codes h = k then s
  else slot_of codes slots mask k ((s + 1) land mask)

(* Rows are inserted back to front, so each chain runs in ascending row
   order.  NULL rows are left out: NULL never joins. *)
let build_index c codes =
  Obs.Counter.incr c_index_builds;
  let n = Array.length codes in
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slots = Array.make !cap (-1) and next = Array.make n (-1) in
  for j = n - 1 downto 0 do
    if j land 4095 = 0 then Obs.Progress.tick ();
    if not (c.has_nulls && bit_get c.nulls j) then begin
      let k = Array.unsafe_get codes j in
      let s = slot_of codes slots mask k (hash k mask) in
      Array.unsafe_set next j (Array.unsafe_get slots s);
      Array.unsafe_set slots s j
    end
  done;
  { codes; slots; next }

let own_cells c codes =
  match c.data with
  | Ints a | Codes a -> a == codes
  | Reals _ | Bools _ -> false

(* Kept on the column only when [codes] are the column's own cells,
   which never change; an index over re-encoded codes serves one join.
   Racing domains may both build it: the indexes are equal and the
   field is published in one write. *)
let index c codes =
  match c.index with
  | Some ix when ix.codes == codes -> ix
  | _ ->
      let ix = build_index c codes in
      if own_cells c codes then c.index <- Some ix;
      ix

let note_probes c n = c.probed <- c.probed + n

(* A kept index is worth building for a column only once the rows joins
   have probed from it exceed its length: a view read once after a
   write never pays for one. *)
let earned_index c codes =
  match c.index with
  | Some ix when ix.codes == codes -> Some ix
  | _ ->
      if own_cells c codes && c.probed > length c then Some (index c codes)
      else None

let index_find ix k =
  let slots = ix.slots in
  let mask = Array.length slots - 1 in
  Array.unsafe_get slots (slot_of ix.codes slots mask k (hash k mask))

let index_next ix j = Array.unsafe_get ix.next j
