(* Seeded session documents, one generator per query class, each with
   its certain answers known by construction.

   The seed only relabels values (every constant is shifted by one
   seed-chosen 8-digit offset, so token lengths do not move) and picks
   which keys carry a conflict; the number of tuples, conflicts and
   answers is fixed per class, so a class costs the same under every
   seed and the seed spread of the benchmark is the host's, not the
   data's. *)

type cls = Fo | Acyclic | Conp | Weakcycle | Selfjoin

let classes = [ Fo; Acyclic; Conp; Weakcycle; Selfjoin ]

let cls_name = function
  | Fo -> "fo"
  | Acyclic -> "acyclic"
  | Conp -> "conp"
  | Weakcycle -> "weakcycle"
  | Selfjoin -> "selfjoin"

(* One UPDATE's fact, as the protocol spells it. *)
type fact = { rel : string; args : int list }

let fact_text f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat ", " (List.map string_of_int f.args))

type t = {
  sid : string;
  cls : cls;
  text : string;  (** the LOAD payload *)
  facts : int;
  aliases : string list;
      (** query names sharing one body: distinct answer-cache keys for
          the same computation, so the cache working set is set by the
          alias count and not by the data size *)
  expected : string list;  (** sorted response body of every alias *)
  probes : (fact * string list) list;
      (** update_mix traffic: a fact to add (and delete again) and the
          sorted answer while it is present *)
}

let rows_of ~rel rows =
  List.map
    (fun args -> Printf.sprintf "row %s(%s)" rel
        (String.concat ", " (List.map string_of_int args)))
    rows

(* Exactly [k] distinct indices of [0, n), chosen by [rng]. *)
let pick_k rng ~n ~k =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.sub a 0 k |> Array.to_list |> List.sort compare

let render ~header ~rows ~query ~aliases =
  String.concat "\n"
    (header @ rows
    @ List.map (fun name -> Printf.sprintf "query %s%s" name query) aliases)
  ^ "\n"

let sorted_rows l = List.sort String.compare l

(* fo — C-forest join q(X) :- T(X, Y), S(Y, Z), keys T[k], S[v]: key
   rewriting.  Key i claims S-key i, and only every tenth S-key exists,
   so the join is selective and the response stays small while the
   rewriting still scans all of T.  A fifth of the keys get a second
   claimant pointing at no S-key; the certain answers are the other
   keys with an S-key.  Every S-key that is a multiple of 70 is
   contested by a second tuple, which the rewriting must look through
   without changing an answer. *)
let fo ~rng ~off ~sid ~aliases ~n =
  (* A fifth of the keys with an S-key and a fifth of the others, so the
     answer count is the same under every seed. *)
  let conflicted =
    List.map (fun j -> 10 * j) (pick_k rng ~n:(n / 10) ~k:(n / 50))
    @ List.map
        (fun j -> (10 * (j / 9)) + (j mod 9) + 1)
        (pick_k rng ~n:(n - (n / 10)) ~k:((n / 5) - (n / 50)))
  in
  let is_conf = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace is_conf i ()) conflicted;
  let t_rows =
    List.concat_map
      (fun i ->
        if Hashtbl.mem is_conf i then [ [ off + i; off + i ]; [ off + i; off + n + i ] ]
        else [ [ off + i; off + i ] ])
      (List.init n Fun.id)
  in
  let s_rows =
    List.concat_map
      (fun i ->
        if i mod 10 <> 0 then []
        else if i mod 70 = 0 then [ [ off + i; off + (2 * n) ]; [ off + i; off + (2 * n) + 1 ] ]
        else [ [ off + i; off + (2 * n) ] ])
      (List.init n Fun.id)
  in
  let certain =
    List.filter
      (fun i -> i mod 10 = 0 && not (Hashtbl.mem is_conf i))
      (List.init n Fun.id)
  in
  let expected_without drop =
    List.filter_map
      (fun i -> if Some i = drop then None else Some (string_of_int (off + i)))
      certain
    |> sorted_rows
  in
  (* A dangling second claimant on a certain key makes it uncertain. *)
  let probes =
    List.map
      (fun i ->
        ({ rel = "T"; args = [ off + i; off + (3 * n) + i ] }, expected_without (Some i)))
      (pick_k rng ~n:(List.length certain) ~k:16
      |> List.map (List.nth certain))
  in
  {
    sid;
    cls = Fo;
    text =
      render
        ~header:[ "relation T(k, v)"; "relation S(v, w)"; "key T(k)"; "key S(v)" ]
        ~rows:(rows_of ~rel:"T" t_rows @ rows_of ~rel:"S" s_rows)
        ~query:"(X) :- T(X, Y), S(Y, Z)" ~aliases;
    facts = List.length t_rows + List.length s_rows;
    aliases;
    expected = expected_without None;
    probes;
  }

(* acyclic — q(X) :- R(X, Y), S(Y, X), keys R[a], S[b]: acyclic attack
   graph outside the C-forest fragment, the Datalog rewriting.  Key i
   points at partner n+i and S points back; a quarter of the keys get a
   second claimant whose partner points at the next key, and exactly
   the other keys are certain. *)
let acyclic ~rng ~off ~sid ~aliases ~n =
  let conflicted = pick_k rng ~n ~k:(n / 4) in
  let is_conf = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace is_conf i ()) conflicted;
  let r_rows =
    List.concat_map
      (fun i ->
        let base = [ off + i; off + n + i ] in
        if Hashtbl.mem is_conf i then [ base; [ off + i; off + n + ((i + 1) mod n) ] ]
        else [ base ])
      (List.init n Fun.id)
  in
  let s_rows = List.init n (fun i -> [ off + n + i; off + i ]) in
  let certain =
    List.filter (fun i -> not (Hashtbl.mem is_conf i)) (List.init n Fun.id)
  in
  let expected_without drop =
    List.filter_map
      (fun i -> if Some i = drop then None else Some (string_of_int (off + i)))
      certain
    |> sorted_rows
  in
  let probes =
    List.map
      (fun i ->
        ({ rel = "R"; args = [ off + i; off + (3 * n) + i ] }, expected_without (Some i)))
      (pick_k rng ~n:(List.length certain) ~k:16
      |> List.map (List.nth certain))
  in
  {
    sid;
    cls = Acyclic;
    text =
      render
        ~header:[ "relation R(a, b)"; "relation S(b, a)"; "key R(a)"; "key S(b)" ]
        ~rows:(rows_of ~rel:"R" r_rows @ rows_of ~rel:"S" s_rows)
        ~query:"(X) :- R(X, Y), S(Y, X)" ~aliases;
    facts = List.length r_rows + List.length s_rows;
    aliases;
    expected = expected_without None;
    probes;
  }

(* conp — the Boolean hard join q() :- R(X, Y), S(Z, Y), keys R[a],
   S[c]: a strong attack cycle, SAT compilation.  Blocks of three
   gadgets (after Workload.Gen.hard_join_instance) share no values: an
   uncertain R-block {R(k,j1), R(k,j2)} with a witness for j1 only; a
   certain R-block whose two claimants both have witnesses; an uncertain
   S-block whose witness's S tuple is contested.  No witness is free of
   conflicts, so certainty takes a SAT refutation, and the certain
   R-blocks make the query true.  An update adds a second, witness-less
   claimant to the R key of an uncertain S-block: the query stays true
   but the instance, and so the SAT theory, changes. *)
let conp ~rng ~off ~sid ~aliases ~blocks =
  let r_rows = ref [] and s_rows = ref [] and s_block_keys = ref [] in
  let next = ref off in
  let fresh () = incr next; !next in
  for _ = 1 to blocks do
    let k = fresh () and j1 = fresh () and j2 = fresh () in
    r_rows := [ k; j1 ] :: [ k; j2 ] :: !r_rows;
    s_rows := [ fresh (); j1 ] :: !s_rows;
    let k = fresh () and j1 = fresh () and j2 = fresh () in
    r_rows := [ k; j1 ] :: [ k; j2 ] :: !r_rows;
    s_rows := [ fresh (); j1 ] :: [ fresh (); j2 ] :: !s_rows;
    let k = fresh () and s = fresh () and j = fresh () in
    r_rows := [ k; j ] :: !r_rows;
    s_rows := [ s; j ] :: [ s; fresh () ] :: !s_rows;
    s_block_keys := k :: !s_block_keys
  done;
  let r_rows = List.rev !r_rows and s_rows = List.rev !s_rows in
  let probe_base = !next + 1 in
  let probes =
    List.map
      (fun j ->
        ({ rel = "R"; args = [ List.nth !s_block_keys j; probe_base + j ] }, [ "true" ]))
      (pick_k rng ~n:blocks ~k:16)
  in
  {
    sid;
    cls = Conp;
    text =
      render
        ~header:[ "relation R(a, b)"; "relation S(c, d)"; "key R(a)"; "key S(c)" ]
        ~rows:(rows_of ~rel:"R" r_rows @ rows_of ~rel:"S" s_rows)
        ~query:"() :- R(X, Y), S(Z, Y)" ~aliases;
    facts = List.length r_rows + List.length s_rows;
    aliases;
    expected = [ "true" ];
    probes;
  }

(* weakcycle — the Boolean q() :- R(X, Y), S(Y, X), keys R[a], S[b]:
   both attacks are weak, a weak attack cycle the classifier leaves
   Unknown, so repair enumeration.  [k] keys form matching R/S pairs,
   each contested by a second R claimant that matches nothing, so the
   repair keeping every such claimant has no match and the query is
   false; with [certain] one extra uncontested pair makes it true.  The
   other keys' S tuples point at the next key and never match. *)
let weakcycle ~rng ~off ~sid ~aliases ~n ~k ~certain =
  let matched = pick_k rng ~n ~k in
  let is_matched = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace is_matched i ()) matched;
  let extra = if certain then [ [ off + (4 * n); off + (5 * n) ] ] else [] in
  let r_rows =
    List.concat_map
      (fun i ->
        let base = [ off + i; off + n + i ] in
        if Hashtbl.mem is_matched i then [ base; [ off + i; off + (2 * n) + i ] ]
        else [ base ])
      (List.init n Fun.id)
    @ extra
  in
  let s_rows =
    List.init n (fun i ->
        if Hashtbl.mem is_matched i then [ off + n + i; off + i ]
        else [ off + n + i; off + ((i + 1) mod n) ])
    @ (if certain then [ [ off + (5 * n); off + (4 * n) ] ] else [])
  in
  {
    sid;
    cls = Weakcycle;
    text =
      render
        ~header:[ "relation R(a, b)"; "relation S(b, a)"; "key R(a)"; "key S(b)" ]
        ~rows:(rows_of ~rel:"R" r_rows @ rows_of ~rel:"S" s_rows)
        ~query:"() :- R(X, Y), S(Y, X)" ~aliases;
    facts = List.length r_rows + List.length s_rows;
    aliases;
    expected = (if certain then [ "true" ] else []);
    probes = [];
  }

(* selfjoin — q(X) :- T(X, Y), T(Y, Z), key T[k]: a self-join, which
   the classifier leaves Unknown, so repair enumeration.  Key i points
   at key i+1 (mod n); [k] keys get a second claimant pointing at no
   key, and exactly the other keys are certain.  An update adds a fresh
   key 2n+j pointing at an existing key: one more certain answer, and
   the same 2^k repairs. *)
let selfjoin ~rng ~off ~sid ~aliases ~n ~k =
  let conflicted = pick_k rng ~n ~k in
  let is_conf = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace is_conf i ()) conflicted;
  let t_rows =
    List.concat_map
      (fun i ->
        let base = [ off + i; off + ((i + 1) mod n) ] in
        if Hashtbl.mem is_conf i then [ base; [ off + i; off + n + i ] ] else [ base ])
      (List.init n Fun.id)
  in
  let certain =
    List.filter_map
      (fun i -> if Hashtbl.mem is_conf i then None else Some (string_of_int (off + i)))
      (List.init n Fun.id)
  in
  {
    sid;
    cls = Selfjoin;
    text =
      render ~header:[ "relation T(k, v)"; "key T(k)" ]
        ~rows:(rows_of ~rel:"T" t_rows)
        ~query:"(X) :- T(X, Y), T(Y, Z)" ~aliases;
    facts = List.length t_rows;
    aliases;
    expected = sorted_rows certain;
    probes =
      List.init 16 (fun j ->
          let key = off + (2 * n) + j in
          ( { rel = "T"; args = [ key; off + (7 * j mod n) ] },
            sorted_rows (string_of_int key :: certain) ));
  }

(* The write-only ledger session: a key-conflict table that receives
   add/delete pairs and is never queried (its query exists only so the
   document is well-formed). *)
let ledger ~rng ~off ~n =
  let conflicted = pick_k rng ~n ~k:(n / 5) in
  let is_conf = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace is_conf i ()) conflicted;
  let t_rows =
    List.concat_map
      (fun i ->
        if Hashtbl.mem is_conf i then [ [ off + i; off + 1 ]; [ off + i; off + 2 ] ]
        else [ [ off + i; off + 1 ] ])
      (List.init n Fun.id)
  in
  {
    sid = "ledger";
    cls = Fo;
    text =
      render ~header:[ "relation T(k, v)"; "key T(k)" ] ~rows:(rows_of ~rel:"T" t_rows)
        ~query:"(X) :- T(X, Y)" ~aliases:[ "q" ];
    facts = List.length t_rows;
    aliases = [ "q" ];
    expected = [];
    probes =
      List.map
        (fun j -> ({ rel = "T"; args = [ off + n + j; off + 1 ] }, []))
        (List.init 16 Fun.id);
  }
