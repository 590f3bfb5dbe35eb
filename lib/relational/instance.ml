module Smap = Map.Make (String)

type cache = {
  mutable raw_digest : int option; (* xor of per-fact hashes *)
  mutable columnar : Columnar.t Smap.t; (* per-relation columnar views *)
}

type t = {
  schema : Schema.t;
  by_tid : Fact.t Tid.Map.t;
  by_fact : Tid.t Fact.Map.t;
  by_rel : Value.t array Tid.Map.t Smap.t;
      (* each relation's rows by tid: [tuples] and [columnar] read a
         relation without one [by_tid] lookup per tuple *)
  size : int;
  next : int;
  cache : cache;
}

let c_columnar_builds = Obs.Counter.make "columnar.builds"

let fresh_cache () = { raw_digest = None; columnar = Smap.empty }

(* Digest contribution of one (tid, fact) pair.  The tid matters: two
   instances with equal fact sets but different insertion orders address
   their facts by different tids, and consumers of the digest (the conflict
   graph cache) key tid-level structures on it. *)
let fact_digest tid (f : Fact.t) =
  Fact.hash f lxor (Tid.hash tid * 0x85ebca6b)

(* The cache of the instance obtained by inserting/removing [f] under
   [tid]: the digest is patched, the touched relation's columnar view
   is stale, and the other views carry over (they are immutable
   snapshots, safe to share). *)
let cache_with cache tid (f : Fact.t) =
  {
    raw_digest = Option.map (fun d -> d lxor fact_digest tid f) cache.raw_digest;
    columnar = Smap.remove f.rel cache.columnar;
  }

let create schema =
  {
    schema;
    by_tid = Tid.Map.empty;
    by_fact = Fact.Map.empty;
    by_rel = Smap.empty;
    size = 0;
    next = 1;
    cache = fresh_cache ();
  }

let schema t = t.schema

let check_fact t (f : Fact.t) =
  if not (Schema.mem t.schema f.rel) then
    invalid_arg (Printf.sprintf "Instance: undeclared relation %s" f.rel);
  let expected = Schema.arity t.schema f.rel in
  if Fact.arity f <> expected then
    invalid_arg
      (Printf.sprintf "Instance: %s expects arity %d, got %d" f.rel expected
         (Fact.arity f))

let rel_rows t rel =
  Option.value ~default:Tid.Map.empty (Smap.find_opt rel t.by_rel)

(* Add [f] under [tid], which must be free, keeping every view of the
   instance in step. *)
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
  match Fact.Map.find_opt f t.by_fact with
  | Some tid -> t, tid
  | None ->
      let tid = Tid.of_int t.next in
      ({ (add_at t tid f) with next = t.next + 1 }, tid)

let insert_row t ~rel values = insert t (Fact.make rel values)
let add t f = fst (insert t f)
let add_all t fs = List.fold_left add t fs

let delete t tid =
  match Tid.Map.find_opt tid t.by_tid with
  | None -> t
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

let tid_of t f = Fact.Map.find_opt f t.by_fact

let delete_fact t f =
  match tid_of t f with Some tid -> delete t tid | None -> t

let fact_of t tid = Tid.Map.find tid t.by_tid
let find_fact t tid = Tid.Map.find_opt tid t.by_tid
let mem_fact t f = Fact.Map.mem f t.by_fact
let mem_tid t tid = Tid.Map.mem tid t.by_tid

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

let declared_rows ~op t rel =
  if not (Schema.mem t.schema rel) then
    invalid_arg (Printf.sprintf "Instance.%s: undeclared relation %s" op rel);
  rel_rows t rel

let tuples t ~rel = Tid.Map.bindings (declared_rows ~op:"tuples" t rel)

let rows t ~rel = List.map snd (tuples t ~rel)

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

(* One walk of the relation's row map fills the tid array and the row
   array; {!Column.of_rows} then types every attribute column in one
   pass over the rows. *)
let columnar t ~rel =
  match Smap.find_opt rel t.cache.columnar with
  | Some c -> c
  | None ->
      Obs.Counter.incr c_columnar_builds;
      let m = declared_rows ~op:"columnar" t rel in
      let attrs = (Schema.relation t.schema rel).Schema.attributes in
      let n = Tid.Map.cardinal m in
      let tids = Array.make n 0 and rows = Array.make n [||] in
      let i = ref 0 in
      Tid.Map.iter
        (fun tid row ->
          tids.(!i) <- Tid.to_int tid;
          rows.(!i) <- row;
          incr i)
        m;
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

let facts t =
  Tid.Map.fold (fun _ f acc -> Fact.Set.add f acc) t.by_tid Fact.Set.empty

let fact_list t = Tid.Map.fold (fun _ f acc -> f :: acc) t.by_tid [] |> List.rev
(* [of_list] sorts the keys and builds the balanced tree in one pass,
   instead of rebalancing through n [add]s. *)
let tids t =
  Tid.Set.of_list (Tid.Map.fold (fun tid _ acc -> tid :: acc) t.by_tid [])
let size t = t.size
let cardinality t ~rel = Tid.Map.cardinal (rel_rows t rel)

let restrict t keep =
  Tid.Map.fold
    (fun tid _ acc -> if Tid.Set.mem tid keep then acc else delete acc tid)
    t.by_tid t

let of_facts schema fs = add_all (create schema) fs

let of_rows schema rels =
  List.fold_left
    (fun acc (rel, rws) ->
      List.fold_left (fun acc values -> add acc (Fact.make rel values)) acc rws)
    (create schema) rels

(* Order-independent content digest: xor of per-fact hashes (maintained
   incrementally across updates), mixed with the cardinality.  Collisions
   are possible, so digest equality is a cache key, not a proof of
   instance equality — verify with [equal] before trusting it. *)
let digest t =
  let raw =
    match t.cache.raw_digest with
    | Some d -> d
    | None ->
        let d =
          Tid.Map.fold (fun tid f acc -> acc lxor fact_digest tid f) t.by_tid 0
        in
        t.cache.raw_digest <- Some d;
        d
  in
  raw lxor (size t * 0x9e3779b1)

let equal a b = Fact.Set.equal (facts a) (facts b)
let equal_with_tids a b = Tid.Map.equal Fact.equal a.by_tid b.by_tid
let subset a b = Fact.Set.subset (facts a) (facts b)
let symmetric_difference a b = Fact.symmetric_difference (facts a) (facts b)

module Vset = Set.Make (Value)

let active_domain t =
  let dom =
    Tid.Map.fold
      (fun _ (f : Fact.t) acc ->
        Array.fold_left
          (fun acc v -> if Value.is_null v then acc else Vset.add v acc)
          acc f.row)
      t.by_tid Vset.empty
  in
  Vset.elements dom

let fold_facts f t init = Tid.Map.fold f t.by_tid init

let pp ppf t =
  let pp_one ppf (tid, f) = Format.fprintf ppf "%a: %a" Tid.pp tid Fact.pp f in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_seq ~pp_sep:Format.pp_print_cut pp_one)
    (Tid.Map.to_seq t.by_tid)
