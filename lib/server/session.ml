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
   [Real 1.] encode apart even though they print alike. *)
let add_int b i = Buffer.add_int64_le b (Int64.of_int i)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_value b : Relational.Value.t -> unit = function
  | Int i ->
      Buffer.add_char b 'i';
      add_int b i
  | Real r ->
      Buffer.add_char b 'r';
      Buffer.add_int64_le b (Int64.bits_of_float r)
  | Str s ->
      Buffer.add_char b 's';
      add_string b s
  | Bool x -> Buffer.add_char b (if x then 't' else 'f')
  | Null -> Buffer.add_char b 'n'

let add_fact b (f : Fact.t) =
  add_string b f.rel;
  add_int b (Array.length f.row);
  Array.iter (add_value b) f.row

let hex_md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

(* The LOAD digest is a content digest: it covers everything an answer
   depends on — the schema, ICs, query definitions and the fact set (a
   re-LOAD may redefine a query name, or a relation's attributes, over
   the same facts; ANALYZE output depends on the schema alone).  Facts
   are encoded one by one and sorted, so equal documents get equal
   digests whatever their row order.  ICs and queries are plain data
   whose constants are [Value.t]s, so their no-sharing marshalled form is
   an injective encoding (only ever compared within one process). *)
let digest_of (doc : Cqa.Parse.document) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "load";
  let rels = Relational.Schema.relations doc.schema in
  add_int b (List.length rels);
  List.iter
    (fun (r : Relational.Schema.relation) ->
      add_string b r.name;
      add_int b (Array.length r.attributes);
      Array.iter (add_string b) r.attributes)
    rels;
  add_string b (Marshal.to_string (doc.ics, doc.queries) [ No_sharing ]);
  let fb = Buffer.create 64 in
  Instance.fact_list doc.instance
  |> List.map (fun f ->
         Buffer.clear fb;
         add_fact fb f;
         Buffer.contents fb)
  |> List.sort String.compare
  |> List.iter (Buffer.add_string b);
  hex_md5 b

(* One UPDATE link of the chain: O(|fact|), where re-digesting the
   document would cost O(|instance|).  The "update" tag keeps a chain
   digest apart from every LOAD digest, and the old digest is
   fixed-width, so equal chain digests still imply equal documents. *)
let chain digest ~op fact =
  let b = Buffer.create 64 in
  Buffer.add_string b "update";
  Buffer.add_string b digest;
  Buffer.add_char b (match op with `Add -> '+' | `Del -> '-');
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
