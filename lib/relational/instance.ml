module Smap = Map.Make (String)

type cache = {
  mutable raw_digest : int option; (* xor of per-fact hashes *)
  mutable columnar : Columnar.t Smap.t; (* per-relation columnar views *)
}

(* One relation's base tuples: ascending tids and the rows under them. *)
type rel_base = { rtids : int array; rrows : Value.t array array }

(* The bulk-built part of an instance, immutable once built: concurrent
   readers share it freely.  Base tids are [1 .. Array.length facts]. *)
type base = {
  facts : Fact.t array; (* the fact under tid [i + 1] *)
  rels : rel_base Smap.t;
  slots : int array;
      (* fact -> tid, open addressing with linear probing: a slot holds a
         tid, or 0 when empty; the length is a power of two, at least
         twice the number of facts *)
  shift : int; (* the slot of hash [h] is [(h * mix) lsr shift] *)
}

(* A base plus a persistent overlay.  The overlay maps hold only the
   facts written after the base was built — an [update_cell] on a base
   tuple files the new fact under its old tid there — and [deleted] the
   base tids no longer present (among them every base tid the overlay
   re-uses), so a tid lives in the overlay or in the base, never both. *)
type t = {
  schema : Schema.t;
  base : base;
  deleted : Tid.Set.t;
  by_tid : Fact.t Tid.Map.t;
  by_fact : Tid.t Fact.Map.t;
  by_rel : Value.t array Tid.Map.t Smap.t;
      (* each relation's overlay rows by tid: [tuples] and [columnar]
         read a relation without one [by_tid] lookup per tuple *)
  size : int;
  next : int;
  cache : cache;
}

let c_columnar_builds = Obs.Counter.make "columnar.builds"

(* Digest contribution of one (tid, fact) pair.  The tid matters: two
   instances with equal fact sets but different insertion orders address
   their facts by different tids, and consumers of the digest (the conflict
   graph cache) key tid-level structures on it. *)
let mix_digest tid h = h lxor (Tid.hash tid * 0x85ebca6b)
let fact_digest tid (f : Fact.t) = mix_digest tid (Fact.hash f)

(* The cache of the instance obtained by inserting/removing [f] under
   [tid]: the digest is patched, the touched relation's columnar view
   is stale, and the other views carry over (they are immutable
   snapshots, safe to share). *)
let cache_with cache tid (f : Fact.t) =
  {
    raw_digest = Option.map (fun d -> d lxor fact_digest tid f) cache.raw_digest;
    columnar = Smap.remove f.rel cache.columnar;
  }

let empty_base =
  { facts = [||]; rels = Smap.empty; slots = [| 0; 0 |]; shift = 62 }

let with_base schema base ~raw_digest =
  let n = Array.length base.facts in
  {
    schema;
    base;
    deleted = Tid.Set.empty;
    by_tid = Tid.Map.empty;
    by_fact = Fact.Map.empty;
    by_rel = Smap.empty;
    size = n;
    next = n + 1;
    cache = { raw_digest = Some raw_digest; columnar = Smap.empty };
  }

let create schema = with_base schema empty_base ~raw_digest:0

let schema t = t.schema

let undeclared rel =
  invalid_arg (Printf.sprintf "Instance: undeclared relation %s" rel)

let check_arity (f : Fact.t) expected =
  if Fact.arity f <> expected then
    invalid_arg
      (Printf.sprintf "Instance: %s expects arity %d, got %d" f.rel expected
         (Fact.arity f))

let check_fact t (f : Fact.t) =
  if not (Schema.mem t.schema f.rel) then undeclared f.rel;
  check_arity f (Schema.arity t.schema f.rel)

(* ------------------------------------------------------------------ *)
(* The base. *)

(* The slot of [f] in [slots]: the one holding its tid, or the empty
   one its probe stopped at. *)
let probe slots facts shift (f : Fact.t) h =
  let mask = Array.length slots - 1 in
  let i = ref ((h * 0x2545F4914F6CDD1D) lsr shift) in
  while
    let tid = slots.(!i) in
    tid <> 0 && not (Fact.equal facts.(tid - 1) f)
  do
    i := (!i + 1) land mask
  done;
  !i

(* The base tid of [f], or 0. *)
let base_find b f =
  if Array.length b.facts = 0 then 0
  else b.slots.(probe b.slots b.facts b.shift f (Fact.hash f))

(* One pass over [input] files every fact not seen before under the
   next tid and drops the repeats, then a second pass fills each
   relation's tid and row arrays in tid order.  The schema checks look
   a relation up once per run of facts sharing its name string. *)
let of_array schema (input : Fact.t array) =
  let n = Array.length input in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let slots = Array.make (1 lsl !bits) 0 and shift = 63 - !bits in
  let rels = Array.of_list (Schema.relations schema) in
  let index =
    Array.fold_left
      (fun (m, i) (r : Schema.relation) -> (Smap.add r.name i m, i + 1))
      (Smap.empty, 0) rels
    |> fst
  in
  let counts = Array.make (Array.length rels) 0 in
  let rel_of = Array.make n 0 in
  let last_name = ref "" and last = ref (-1) in
  let unique = ref 0 and raw = ref 0 in
  for k = 0 to n - 1 do
    let f = input.(k) in
    if not (f.rel == !last_name && !last >= 0) then begin
      match Smap.find_opt f.rel index with
      | None -> undeclared f.rel
      | Some i ->
          last_name := f.rel;
          last := i
    end;
    check_arity f (Array.length rels.(!last).attributes);
    let h = Fact.hash f in
    (* [input] below [!unique] already holds the kept facts. *)
    let i = probe slots input shift f h in
    if slots.(i) = 0 then begin
      let u = !unique in
      input.(u) <- f;
      rel_of.(u) <- !last;
      counts.(!last) <- counts.(!last) + 1;
      slots.(i) <- u + 1;
      raw := !raw lxor mix_digest (Tid.of_int (u + 1)) h;
      unique := u + 1
    end
  done;
  let facts = if !unique = n then input else Array.sub input 0 !unique in
  let filled = Array.make (Array.length rels) 0 in
  let parts =
    Array.map
      (fun c -> { rtids = Array.make c 0; rrows = Array.make c [||] })
      counts
  in
  Array.iteri
    (fun k (f : Fact.t) ->
      let r = rel_of.(k) in
      let p = parts.(r) and j = filled.(r) in
      p.rtids.(j) <- k + 1;
      p.rrows.(j) <- f.row;
      filled.(r) <- j + 1)
    facts;
  let rels =
    Array.fold_left
      (fun (m, i) (r : Schema.relation) ->
        ((if counts.(i) = 0 then m else Smap.add r.name parts.(i) m), i + 1))
      (Smap.empty, 0) rels
    |> fst
  in
  with_base schema { facts; rels; slots; shift } ~raw_digest:!raw

let base_live t tid =
  let i = Tid.to_int tid in
  i >= 1 && i <= Array.length t.base.facts && not (Tid.Set.mem tid t.deleted)

(* ------------------------------------------------------------------ *)
(* Point operations. *)

let find_fact t tid =
  match Tid.Map.find_opt tid t.by_tid with
  | Some _ as found -> found
  | None ->
      if base_live t tid then Some t.base.facts.(Tid.to_int tid - 1) else None

let fact_of t tid =
  match find_fact t tid with Some f -> f | None -> raise Not_found

let tid_of t f =
  match Fact.Map.find_opt f t.by_fact with
  | Some _ as found -> found
  | None ->
      let tid = Tid.of_int (base_find t.base f) in
      if Tid.to_int tid > 0 && not (Tid.Set.mem tid t.deleted) then Some tid
      else None

let mem_fact t f = Option.is_some (tid_of t f)
let mem_tid t tid = Option.is_some (find_fact t tid)

let rel_rows t rel =
  Option.value ~default:Tid.Map.empty (Smap.find_opt rel t.by_rel)

(* Add [f] under [tid], which must be free, to the overlay. *)
let add_at t tid (f : Fact.t) =
  {
    t with
    by_tid = Tid.Map.add tid f t.by_tid;
    by_fact = Fact.Map.add f tid t.by_fact;
    by_rel = Smap.add f.rel (Tid.Map.add tid f.row (rel_rows t f.rel)) t.by_rel;
    size = t.size + 1;
    cache = cache_with t.cache tid f;
  }

let insert t (f : Fact.t) =
  check_fact t f;
  match tid_of t f with
  | Some tid -> t, tid
  | None ->
      let tid = Tid.of_int t.next in
      ({ (add_at t tid f) with next = t.next + 1 }, tid)

let insert_row t ~rel values = insert t (Fact.make rel values)
let add t f = fst (insert t f)
let add_all t fs = List.fold_left add t fs

let delete t tid =
  match Tid.Map.find_opt tid t.by_tid with
  | Some f ->
      let rel_rows = Tid.Map.remove tid (Smap.find f.rel t.by_rel) in
      {
        t with
        by_tid = Tid.Map.remove tid t.by_tid;
        by_fact = Fact.Map.remove f t.by_fact;
        by_rel =
          (if Tid.Map.is_empty rel_rows then Smap.remove f.rel t.by_rel
           else Smap.add f.rel rel_rows t.by_rel);
        size = t.size - 1;
        cache = cache_with t.cache tid f;
      }
  | None ->
      if base_live t tid then
        let f = t.base.facts.(Tid.to_int tid - 1) in
        {
          t with
          deleted = Tid.Set.add tid t.deleted;
          size = t.size - 1;
          cache = cache_with t.cache tid f;
        }
      else t

let delete_fact t f =
  match tid_of t f with Some tid -> delete t tid | None -> t

let update_cell t (cell : Tid.Cell.t) v =
  let f = fact_of t cell.tid in
  let n = Array.length f.row in
  if cell.pos < 1 || cell.pos > n then
    invalid_arg
      (Printf.sprintf "Instance.update_cell: position %d out of 1..%d"
         cell.pos n);
  let row = Array.copy f.row in
  row.(cell.pos - 1) <- v;
  let f' = { f with row } in
  let t = delete t cell.tid in
  if mem_fact t f' then t
  else
    (* Re-insert under the original tid so that change-sets keep referring
       to stable identifiers across attribute updates. *)
    add_at t cell.tid f'

(* ------------------------------------------------------------------ *)
(* Walks in tid order: the base's live entries merged with the
   overlay's, whose tids may fall between them. *)

let iter t f =
  let facts = t.base.facts and deleted = t.deleted in
  let nb = Array.length facts and all_live = Tid.Set.is_empty deleted in
  let i = ref 1 in
  let upto bound =
    while !i <= nb && !i < bound do
      let tid = Tid.of_int !i in
      if all_live || not (Tid.Set.mem tid deleted) then f tid facts.(!i - 1);
      incr i
    done
  in
  Tid.Map.iter
    (fun tid fact ->
      upto (Tid.to_int tid);
      f tid fact)
    t.by_tid;
  upto max_int

let iter_rel t rel f =
  let deleted = t.deleted in
  let all_live = Tid.Set.is_empty deleted in
  let overlay = rel_rows t rel in
  match Smap.find_opt rel t.base.rels with
  | None -> Tid.Map.iter f overlay
  | Some { rtids; rrows } ->
      let n = Array.length rtids in
      let i = ref 0 in
      let upto bound =
        while !i < n && rtids.(!i) < bound do
          let tid = Tid.of_int rtids.(!i) in
          if all_live || not (Tid.Set.mem tid deleted) then f tid rrows.(!i);
          incr i
        done
      in
      Tid.Map.iter
        (fun tid row ->
          upto (Tid.to_int tid);
          f tid row)
        overlay;
      upto max_int

let fold_facts f t init =
  let acc = ref init in
  iter t (fun tid fact -> acc := f tid fact !acc);
  !acc

let declared ~op t rel =
  if not (Schema.mem t.schema rel) then
    invalid_arg (Printf.sprintf "Instance.%s: undeclared relation %s" op rel)

let tuples t ~rel =
  declared ~op:"tuples" t rel;
  let acc = ref [] in
  iter_rel t rel (fun tid row -> acc := (tid, row) :: !acc);
  List.rev !acc

let rows t ~rel = List.map snd (tuples t ~rel)

(* The base arrays themselves when no write touched the relation. *)
let pristine t rel =
  Tid.Set.is_empty t.deleted && not (Smap.mem rel t.by_rel)

let cardinality t ~rel =
  if pristine t rel then
    match Smap.find_opt rel t.base.rels with
    | Some b -> Array.length b.rtids
    | None -> 0
  else
    let n = ref 0 in
    iter_rel t rel (fun _ _ -> incr n);
    !n

(* ------------------------------------------------------------------ *)
(* Columnar views.

   A relation's columnar snapshot is built lazily, memoized in the
   per-version cache, and invalidated (per relation) by the persistent
   update operations via [cache_with].  Building and memoizing mutate
   only the cache record, and always by replacing a whole persistent
   map behind a single mutable field: concurrent readers (parallel
   repair checking) see either the old or the new map, and a lost
   racing build merely repeats work.

   Every view carries the synthetic leading column [tid_column] holding
   the tuple identifiers; plans that do not need tids simply never ask
   for that column. *)

let tid_column = "#tid"

(* An untouched relation's view reads the base arrays as they are (the
   base is never written); otherwise one merged walk fills the tid and
   row arrays.  {!Column.of_rows} then types every attribute column in
   one pass over the rows. *)
let columnar t ~rel =
  match Smap.find_opt rel t.cache.columnar with
  | Some c -> c
  | None ->
      Obs.Counter.incr c_columnar_builds;
      declared ~op:"columnar" t rel;
      let attrs = (Schema.relation t.schema rel).Schema.attributes in
      let tids, rows =
        match Smap.find_opt rel t.base.rels with
        | Some b when pristine t rel -> (b.rtids, b.rrows)
        | None when pristine t rel -> ([||], [||])
        | _ ->
            let n = cardinality t ~rel in
            let tids = Array.make n 0 and rows = Array.make n [||] in
            let i = ref 0 in
            iter_rel t rel (fun tid row ->
                tids.(!i) <- Tid.to_int tid;
                rows.(!i) <- row;
                incr i);
            (tids, rows)
      in
      let n = Array.length tids in
      let c =
        Columnar.make
          (Array.append [| tid_column |] attrs)
          (Array.append
             [| Column.of_ints tids |]
             (Column.of_rows (Array.length attrs) rows))
          n
      in
      t.cache.columnar <- Smap.add rel c t.cache.columnar;
      c

let fact_list t = fold_facts (fun _ f acc -> f :: acc) t [] |> List.rev
let facts t = Fact.Set.of_list (fact_list t)
(* [of_list] sorts the keys and builds the balanced tree in one pass,
   instead of rebalancing through n [add]s. *)
let tids t = Tid.Set.of_list (fold_facts (fun tid _ acc -> tid :: acc) t [])
let size t = t.size

let restrict t keep =
  fold_facts
    (fun tid _ acc -> if Tid.Set.mem tid keep then acc else delete acc tid)
    t t

let of_facts schema fs = of_array schema (Array.of_list fs)

let of_rows schema rels =
  of_array schema
    (Array.of_list
       (List.concat_map
          (fun (rel, rws) -> List.map (fun values -> Fact.make rel values) rws)
          rels))

(* Order-independent content digest: xor of per-fact hashes (maintained
   incrementally across updates), mixed with the cardinality.  Collisions
   are possible, so digest equality is a cache key, not a proof of
   instance equality — verify with [equal] before trusting it. *)
let digest t =
  let raw =
    match t.cache.raw_digest with
    | Some d -> d
    | None ->
        let d = fold_facts (fun tid f acc -> acc lxor fact_digest tid f) t 0 in
        t.cache.raw_digest <- Some d;
        d
  in
  raw lxor (size t * 0x9e3779b1)

let equal a b = Fact.Set.equal (facts a) (facts b)

let bindings t = fold_facts (fun tid f acc -> (tid, f) :: acc) t []

let pure t = Tid.Set.is_empty t.deleted && Tid.Map.is_empty t.by_tid
let same_fact x y = x == y || Fact.equal x y

(* Two bulk-built instances compare their fact arrays; two over one
   base compare their overlays.  An overlay may still re-file a base
   fact under its own tid, so a mismatch there falls back to the full
   walk. *)
let equal_with_tids a b =
  a == b
  || a.size = b.size
     &&
     if pure a && pure b then
       a.base == b.base || Array.for_all2 same_fact a.base.facts b.base.facts
     else
       a.base == b.base
       && Tid.Set.equal a.deleted b.deleted
       && Tid.Map.equal same_fact a.by_tid b.by_tid
       || List.equal
            (fun (t1, f1) (t2, f2) -> Tid.equal t1 t2 && same_fact f1 f2)
            (bindings a) (bindings b)

let subset a b = Fact.Set.subset (facts a) (facts b)
let symmetric_difference a b = Fact.symmetric_difference (facts a) (facts b)

module Vset = Set.Make (Value)

let active_domain t =
  let dom =
    fold_facts
      (fun _ (f : Fact.t) acc ->
        Array.fold_left
          (fun acc v -> if Value.is_null v then acc else Vset.add v acc)
          acc f.row)
      t Vset.empty
  in
  Vset.elements dom

let pp ppf t =
  let pp_one ppf (tid, f) = Format.fprintf ppf "%a: %a" Tid.pp tid Fact.pp f in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_one)
    (List.rev (bindings t))
