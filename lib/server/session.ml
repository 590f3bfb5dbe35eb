module Instance = Relational.Instance
module Fact = Relational.Fact

type t = {
  id : string;
  mutable doc : Cqa.Parse.document;
  mutable engine : Cqa.Engine.t;
  mutable digest : string;
  cache_keys : (string, unit) Hashtbl.t;
}

type store = (string, t) Hashtbl.t

let create_store () : store = Hashtbl.create 16
let count = Hashtbl.length

(* Every piece of a digest preimage goes through this encoding.  It is
   injective and prefix-free: integers are fixed-width, strings carry a
   length prefix, and every value a type tag, so [Int 1], [Str "1"] and
   [Real 1.] encode apart even though they print alike.  The preimage
   grows in place in one [Bytes]: a [Buffer] checks and swaps on every
   int64 write, at about ten times the cost of a [Bytes] store. *)
type preimage = { mutable bytes : Bytes.t; mutable len : int }

let preimage size = { bytes = Bytes.create size; len = 0 }

let reserve p k =
  if p.len + k > Bytes.length p.bytes then begin
    let grown = Bytes.create (max (2 * Bytes.length p.bytes) (p.len + k)) in
    Bytes.blit p.bytes 0 grown 0 p.len;
    p.bytes <- grown
  end

let add_char p c =
  reserve p 1;
  Bytes.unsafe_set p.bytes p.len c;
  p.len <- p.len + 1

let add_int64 p i =
  reserve p 8;
  Bytes.set_int64_le p.bytes p.len i;
  p.len <- p.len + 8

(* Not [add_int64 p (Int64.of_int i)]: written in place, the int64 is
   never boxed. *)
let add_int p i =
  reserve p 8;
  Bytes.set_int64_le p.bytes p.len (Int64.of_int i);
  p.len <- p.len + 8

let add_raw p s =
  let n = String.length s in
  reserve p n;
  Bytes.blit_string s 0 p.bytes p.len n;
  p.len <- p.len + n

let add_string p s =
  add_int p (String.length s);
  add_raw p s

let add_value p : Relational.Value.t -> unit = function
  | Int i ->
      add_char p 'i';
      add_int p i
  | Real r ->
      add_char p 'r';
      add_int64 p (Int64.bits_of_float r)
  | Str s ->
      add_char p 's';
      add_string p s
  | Bool x -> add_char p (if x then 't' else 'f')
  | Null -> add_char p 'n'

let add_fact p (f : Fact.t) =
  add_string p f.rel;
  add_int p (Array.length f.row);
  for i = 0 to Array.length f.row - 1 do
    add_value p f.row.(i)
  done

let hex_md5 p = Digest.to_hex (Digest.subbytes p.bytes 0 p.len)

(* Sort [packed] — each entry a key above an index in the low 30 bits
   — by key: three 11-bit counting passes over the key's low 33 bits,
   least significant digit first, each reading the array in order. *)
let radix_sort packed =
  let n = Array.length packed in
  let src = ref packed and dst = ref (Array.make n 0) in
  let count = Array.make 2048 0 in
  for pass = 0 to 2 do
    let shift = 30 + (11 * pass) in
    Array.fill count 0 2048 0;
    Array.iter
      (fun v ->
        let d = (v lsr shift) land 2047 in
        count.(d) <- count.(d) + 1)
      !src;
    let sum = ref 0 in
    for d = 0 to 2047 do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    let out = !dst in
    Array.iter
      (fun v ->
        let d = (v lsr shift) land 2047 in
        out.(count.(d)) <- v;
        count.(d) <- count.(d) + 1)
      !src;
    dst := !src;
    src := out
  done;
  !src

(* The LOAD digest is a content digest: it covers everything an answer
   depends on — the schema, ICs, query definitions and the fact set (a
   re-LOAD may redefine a query name, or a relation's attributes, over
   the same facts; ANALYZE output depends on the schema alone).  ICs
   and queries are plain data whose constants are [Value.t]s, so their
   no-sharing marshalled form is an injective encoding (only ever
   compared within one process).

   Facts are encoded one after another in tid order, in one pass, and
   the encodings are then laid out in a canonical order: by a 33-bit key
   mixed from [Fact.hash], and by the encodings' bytes within a run of
   equal keys.  The order depends on the fact set alone, so equal
   documents digest alike whatever their row order; no per-fact string
   is built and no string is sorted. *)
let digest_of (doc : Cqa.Parse.document) =
  let head = preimage 4096 in
  add_raw head "load";
  let rels = Relational.Schema.relations doc.schema in
  add_int head (List.length rels);
  List.iter
    (fun (r : Relational.Schema.relation) ->
      add_string head r.name;
      add_int head (Array.length r.attributes);
      Array.iter (add_string head) r.attributes)
    rels;
  add_string head (Marshal.to_string (doc.ics, doc.queries) [ No_sharing ]);
  let n = Instance.size doc.instance in
  assert (n < 1 lsl 30);
  let body = preimage (64 + (32 * n)) in
  let starts = Array.make (n + 1) 0 and packed = Array.make n 0 in
  ignore
    (Instance.fold_facts
       (fun _ f i ->
         starts.(i) <- body.len;
         add_fact body f;
         let key = (Fact.hash f * 0x2545F4914F6CDD1D) lsr 30 in
         packed.(i) <- (key lsl 30) lor i;
         i + 1)
       doc.instance 0);
  starts.(n) <- body.len;
  let sorted = radix_sort packed in
  let index v = v land ((1 lsl 30) - 1) in
  let encoding i =
    Bytes.sub_string body.bytes starts.(i) (starts.(i + 1) - starts.(i))
  in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && sorted.(!j) lsr 30 = sorted.(!i) lsr 30 do
      incr j
    done;
    if !j - !i > 1 then begin
      let run = Array.sub sorted !i (!j - !i) in
      Array.sort
        (fun a b -> String.compare (encoding (index a)) (encoding (index b)))
        run;
      Array.blit run 0 sorted !i (!j - !i)
    end;
    i := !j
  done;
  reserve head body.len;
  Array.iter
    (fun v ->
      let i = index v in
      let len = starts.(i + 1) - starts.(i) in
      Bytes.blit body.bytes starts.(i) head.bytes head.len len;
      head.len <- head.len + len)
    sorted;
  hex_md5 head

(* One UPDATE link of the chain: O(|fact|), where re-digesting the
   document would cost O(|instance|).  The "update" tag keeps a chain
   digest apart from every LOAD digest, and the old digest is
   fixed-width, so equal chain digests still imply equal documents. *)
let chain digest ~op fact =
  let b = preimage 64 in
  add_raw b "update";
  add_raw b digest;
  add_char b (match op with `Add -> '+' | `Del -> '-');
  add_fact b fact;
  hex_md5 b

(* The instance of a resident session with this digest whose facts sit
   under the same tids as [inst]'s.  Sharing it makes the twins' SAT
   reads meet the theory memo's physical-equality shortcuts: one
   instance compare per LOAD instead of two per read.  The same facts
   in another row order digest alike but carry other tids, so they keep
   their own instance. *)
let twin_instance store digest inst =
  Hashtbl.fold
    (fun _ t found ->
      match found with
      | Some _ -> found
      | None ->
          if
            t.digest = digest
            && Instance.equal_with_tids t.doc.instance inst
          then Some t.doc.instance
          else None)
    store None

let load store ~id (doc : Cqa.Parse.document) =
  let digest = digest_of doc in
  let doc =
    match twin_instance store digest doc.instance with
    | Some instance -> { doc with instance }
    | None -> doc
  in
  let t =
    {
      id;
      doc;
      engine = Cqa.Engine.create ~schema:doc.schema ~ics:doc.ics doc.instance;
      digest;
      cache_keys = Hashtbl.create 16;
    }
  in
  Hashtbl.replace store id t;
  t

let find store id = Hashtbl.find_opt store id

let close store id =
  if Hashtbl.mem store id then begin
    Hashtbl.remove store id;
    true
  end
  else false

let ids store =
  Hashtbl.fold (fun id _ acc -> id :: acc) store [] |> List.sort String.compare

let resident_facts store =
  Hashtbl.fold (fun _ t acc -> acc + Instance.size t.doc.instance) store 0

let tracked_keys store =
  Hashtbl.fold (fun _ t acc -> acc + Hashtbl.length t.cache_keys) store 0

let remember_key t key = Hashtbl.replace t.cache_keys key ()

let take_keys t =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.cache_keys [] in
  Hashtbl.reset t.cache_keys;
  keys

let apply_update t ~op ~rel values =
  let fact = Fact.make rel values in
  match Cqa.Engine.update t.engine op fact with
  | exception Invalid_argument msg -> Error msg
  | engine when engine == t.engine ->
      (* A duplicate add or an absent delete: nothing changed, so the
         engine, the digest and the cache entries under it all stand. *)
      Ok ()
  | engine ->
      t.doc <- { t.doc with instance = engine.instance };
      t.engine <- engine;
      t.digest <- chain t.digest ~op fact;
      Ok ()
