type t = int

let of_int i = i
let to_int i = i
let equal = Int.equal
let compare = Int.compare
let hash i = Hashtbl.hash i
let pp ppf i = Format.fprintf ppf "t%d" i

module Set = Set.Make (Int)
module Map = Map.Make (Int)

module Sorted = struct
  type nonrec t = t array

  (* Insertion into a prefix of [a]: rows have one tid per body atom, so
     a handful at most. *)
  let of_columns cols r =
    let n = Array.length cols in
    let a = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let t = cols.(i).(r) in
      let j = ref (!k - 1) in
      while !j >= 0 && a.(!j) > t do
        decr j
      done;
      if !j < 0 || a.(!j) <> t then begin
        Array.blit a (!j + 1) a (!j + 2) (!k - !j - 1);
        a.(!j + 1) <- t;
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k

  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i = la then if i = lb then 0 else -1
      else if i = lb then 1
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let to_set (a : t) = Array.fold_left (fun s t -> Set.add t s) Set.empty a
end

module Cell = struct
  type nonrec t = { tid : t; pos : int }

  let make tid pos = { tid; pos }
  let equal a b = equal a.tid b.tid && a.pos = b.pos

  let compare a b =
    match compare a.tid b.tid with 0 -> Int.compare a.pos b.pos | c -> c

  let pp ppf { tid; pos } = Format.fprintf ppf "%a[%d]" pp tid pos

  module Set = Stdlib.Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)
end
