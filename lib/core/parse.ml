module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Term = Logic.Term
module Atom = Logic.Atom
module Cmp = Logic.Cmp
module Ic = Constraints.Ic

type document = {
  schema : Schema.t;
  instance : Instance.t;
  ics : Ic.t list;
  queries : (string * Logic.Cq.t) list;
}

exception Error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Error (line, m))) fmt

(* --- the cursor ---------------------------------------------------------

   One cursor reads the whole text, a token at a time, with the current
   token as its one lookahead.  A token is a span of the text; only the
   tokens a directive keeps become strings.  Directives are lines: the
   newline ends one ([Eol]), and no token spans two lines. *)

type kind =
  | Ident
  | Quoted (* the span excludes the quotes *)
  | Sym (* ( ) , : [ ] ; and operators *)
  | Eol
  | Eof

type cursor = {
  text : string;
  mutable pos : int; (* first unread byte *)
  mutable line : int; (* the current token's line *)
  mutable kind : kind;
  mutable start : int; (* the current token is text.[start .. stop - 1] *)
  mutable stop : int;
}

let is_ident_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_ident_char c = is_ident_start c || c = '.'

(* Blanks, and a comment up to its newline. *)
let rec skip_blanks s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | ' ' | '\t' | '\r' -> skip_blanks s (i + 1)
    | '%' -> (
        match String.index_from_opt s i '\n' with
        | Some j -> j
        | None -> String.length s)
    | _ -> i

let set_token c kind start stop =
  c.kind <- kind;
  c.start <- start;
  c.stop <- stop

let advance c =
  if c.kind = Eol then c.line <- c.line + 1;
  let s = c.text and n = String.length c.text in
  let i = skip_blanks s c.pos in
  if i >= n then begin
    set_token c Eof i i;
    c.pos <- i
  end
  else
    let ch = s.[i] in
    if ch = '\n' then begin
      set_token c Eol i i;
      c.pos <- i + 1
    end
    else if ch = '"' then begin
      let j = ref (i + 1) in
      while !j < n && s.[!j] <> '"' && s.[!j] <> '\n' do
        incr j
      done;
      if !j >= n || s.[!j] <> '"' then fail c.line "unterminated string";
      set_token c Quoted (i + 1) !j;
      c.pos <- !j + 1
    end
    else if is_ident_start ch then begin
      let j = ref (i + 1) in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      set_token c Ident i !j;
      c.pos <- !j
    end
    else
      let two =
        i + 1 < n
        &&
        match (ch, s.[i + 1]) with
        | '<', ('>' | '=') | '>', '=' | ':', '-' -> true
        | _ -> false
      in
      let stop = if two then i + 2 else i + 1 in
      set_token c Sym i stop;
      c.pos <- stop

let cursor text =
  let c = { text; pos = 0; line = 0; kind = Eol; start = 0; stop = 0 } in
  advance c;
  c

let tok_text c = String.sub c.text c.start (c.stop - c.start)

let rec same_bytes text at s i =
  i = String.length s || (text.[at + i] = s.[i] && same_bytes text at s (i + 1))

(* The current token's span spells [s]. *)
let spells c s =
  c.stop - c.start = String.length s && same_bytes c.text c.start s 0

let is_sym c s = c.kind = Sym && spells c s
let at_end c = match c.kind with Eol | Eof -> true | _ -> false

let describe c =
  match c.kind with
  | Quoted -> "\"" ^ tok_text c ^ "\""
  | Eol | Eof -> "end of line"
  | Ident | Sym -> tok_text c

let end_of_line c = fail c.line "unexpected end of line"

let expect_sym c s =
  if at_end c then end_of_line c;
  if not (is_sym c s) then fail c.line "expected '%s'" s;
  advance c

let ident c =
  match c.kind with
  | Ident | Quoted ->
      let s = tok_text c in
      advance c;
      s
  | Sym -> fail c.line "expected identifier, got '%s'" (tok_text c)
  | Eol | Eof -> end_of_line c

(* An all-digit span read as an integer in place, or -1 for a span
   holding another character. *)
let rec digits c i acc =
  if i = c.stop then acc
  else
    let ch = c.text.[i] in
    if ch < '0' || ch > '9' then -1
    else
      let d = Char.code ch - 48 in
      if acc > (max_int - d) / 10 then
        fail c.line "integer %s out of range" (tok_text c)
      else digits c (i + 1) ((acc * 10) + d)

let int_of_digits c = digits c c.start 0

let value c =
  let v =
    match c.kind with
    | Quoted -> Value.str (tok_text c)
    | Ident -> (
        let i = int_of_digits c in
        if i >= 0 then Value.int i
        else if spells c "null" then Value.Null
        else Value.str (tok_text c))
    | Sym -> fail c.line "expected value, got '%s'" (tok_text c)
    | Eol | Eof -> end_of_line c
  in
  advance c;
  v

let term c =
  let t =
    match c.kind with
    | Quoted -> Term.Const (Value.str (tok_text c))
    | Ident -> (
        let i = int_of_digits c in
        if i >= 0 then Term.int i
        else
          let s = tok_text c in
          if String.equal s "null" then Term.Const Value.Null
          else if s.[0] >= 'A' && s.[0] <= 'Z' then Term.var s
          else Term.str s)
    | Sym -> fail c.line "expected term, got '%s'" (tok_text c)
    | Eol | Eof -> end_of_line c
  in
  advance c;
  t

let comma_list c parse =
  let rec go acc =
    let x = parse c in
    if is_sym c "," then begin
      advance c;
      go (x :: acc)
    end
    else List.rev (x :: acc)
  in
  go []

let paren_list c parse =
  expect_sym c "(";
  if is_sym c ")" then begin
    advance c;
    []
  end
  else
    let xs = comma_list c parse in
    expect_sym c ")";
    xs

let op_of_sym line = function
  | "=" -> Cmp.Eq
  | "<>" -> Cmp.Neq
  | "<" -> Cmp.Lt
  | "<=" -> Cmp.Le
  | ">" -> Cmp.Gt
  | ">=" -> Cmp.Ge
  | s -> fail line "unknown comparison operator '%s'" s

let is_cmp_op c =
  c.kind = Sym && List.exists (spells c) [ "="; "<>"; "<"; "<="; ">"; ">=" ]

(* A body element: either Pred(args) or term OP term. *)
let parse_body_element c =
  if at_end c then end_of_line c;
  let first_kind = c.kind and first = tok_text c in
  let left = if first_kind = Sym then None else Some (term c) in
  if first_kind = Ident && is_sym c "(" then
    `Atom (Atom.make first (paren_list c term))
  else
    match left with
    | Some left when is_cmp_op c ->
        let op = op_of_sym c.line (tok_text c) in
        advance c;
        `Cmp (Cmp.make op left (term c))
    | _ -> fail c.line "expected atom or comparison"

let parse_body c =
  let elems = comma_list c parse_body_element in
  let atoms = List.filter_map (function `Atom a -> Some a | `Cmp _ -> None) elems in
  let comps = List.filter_map (function `Cmp c -> Some c | `Atom _ -> None) elems in
  (atoms, comps)

(* --- directives ------------------------------------------------------- *)

type state = {
  mutable schema : Schema.t;
  mutable facts : Relational.Fact.t array; (* the first [n_facts] *)
  mutable n_facts : int;
  mutable last_rel : Schema.relation option; (* the previous row's *)
  mutable ics : Ic.t list; (* reversed *)
  mutable queries : (string * Logic.Cq.t) list; (* reversed *)
}

let attr_index state line rel attr =
  try Schema.attribute_index state.schema ~rel ~attr
  with Not_found -> fail line "unknown attribute %s of %s" attr rel

let check_rel state line rel =
  if not (Schema.mem state.schema rel) then fail line "unknown relation %s" rel

(* Every head and comparison variable must occur in a body atom: no
   executor has anything to range such a variable over. *)
let check_safe line ~what head atoms comps =
  let bound =
    Logic.Term.vars (List.concat_map (fun (a : Logic.Atom.t) -> a.args) atoms)
  in
  let check kind vs =
    List.iter
      (fun v ->
        if not (List.mem v bound) then
          fail line "unsafe %s: %s variable %s occurs in no body atom" what
            kind v)
      vs
  in
  check "head" (Logic.Term.vars head);
  check "comparison" (List.concat_map Logic.Cmp.vars comps)

(* The declared relation a row names: the previous row's when the span
   spells its name, so a run of rows looks the schema up once and every
   fact shares the schema's name string. *)
let row_relation state c =
  match (c.kind, state.last_rel) with
  | (Ident | Quoted), Some r when spells c r.name ->
      advance c;
      r
  | _ ->
      let line = c.line in
      let name = ident c in
      check_rel state line name;
      let r = Schema.relation state.schema name in
      state.last_rel <- Some r;
      r

(* row R(v1, ..., vn): the values go straight into an array of R's
   arity; a row of another length is an error on its line. *)
let parse_row state c =
  let r = row_relation state c in
  let arity = Array.length r.attributes in
  let row = Array.make arity Value.Null in
  let got = ref 0 in
  let line = c.line in
  expect_sym c "(";
  if is_sym c ")" then advance c
  else begin
    let more = ref true in
    while !more do
      let v = value c in
      if !got < arity then row.(!got) <- v;
      incr got;
      if is_sym c "," then advance c
      else begin
        expect_sym c ")";
        more := false
      end
    done
  end;
  if !got <> arity then
    fail line "%s expects arity %d, got %d" r.name arity !got;
  let f = { Relational.Fact.rel = r.name; row } in
  let n = state.n_facts in
  if n = Array.length state.facts then begin
    let grown = Array.make (max 64 (2 * n)) f in
    Array.blit state.facts 0 grown 0 n;
    state.facts <- grown
  end;
  state.facts.(n) <- f;
  state.n_facts <- n + 1

let directive state c =
  let line_no = c.line in
  let word = if spells c "row" then "row" else tok_text c in
  advance c;
  match word with
  | "row" -> parse_row state c
  | "relation" ->
      let name = ident c in
      let attrs = paren_list c ident in
      state.schema <- Schema.add_relation state.schema ~name ~attributes:attrs
  | "key" ->
      let name = ident c in
      check_rel state line_no name;
      let attrs = paren_list c ident in
      let positions = List.map (attr_index state line_no name) attrs in
      state.ics <- Ic.key ~rel:name positions :: state.ics
  | "fd" ->
      let name = ident c in
      check_rel state line_no name;
      expect_sym c ":";
      let lhs = comma_list c ident in
      expect_sym c "-";
      expect_sym c ">";
      let rhs = comma_list c ident in
      state.ics <-
        Ic.fd ~rel:name
          ~lhs:(List.map (attr_index state line_no name) lhs)
          ~rhs:(List.map (attr_index state line_no name) rhs)
        :: state.ics
  | "ind" ->
      let sub = ident c in
      check_rel state line_no sub;
      expect_sym c "[";
      let sub_attrs = comma_list c ident in
      expect_sym c "]";
      expect_sym c "<=";
      let sup = ident c in
      check_rel state line_no sup;
      expect_sym c "[";
      let sup_attrs = comma_list c ident in
      expect_sym c "]";
      state.ics <-
        Ic.ind
          ~sub:(sub, List.map (attr_index state line_no sub) sub_attrs)
          ~sup:(sup, List.map (attr_index state line_no sup) sup_attrs)
        :: state.ics
  | "cfd" ->
      (* cfd R: a = 44, b -> c [= v]: pattern constants inline. *)
      let name = ident c in
      check_rel state line_no name;
      expect_sym c ":";
      let parse_spec c =
        let attr = ident c in
        if is_sym c "=" then begin
          advance c;
          (attr, Some (value c))
        end
        else (attr, None)
      in
      let lhs = comma_list c parse_spec in
      expect_sym c "-";
      expect_sym c ">";
      let rhs = comma_list c parse_spec in
      let pos (attr, _) = attr_index state line_no name attr in
      let pat =
        List.map (fun ((_, v) as spec) -> (pos spec, v)) (lhs @ rhs)
      in
      state.ics <-
        Ic.cfd ~rel:name ~lhs:(List.map pos lhs) ~rhs:(List.map pos rhs) ~pat
        :: state.ics
  | "dc" ->
      let name = ident c in
      expect_sym c ":";
      let atoms, comps = parse_body c in
      check_safe line_no ~what:("dc " ^ name) [] atoms comps;
      state.ics <- Ic.denial ~name ~comps atoms :: state.ics
  | "query" ->
      let name = ident c in
      let head = paren_list c term in
      expect_sym c ":-";
      let atoms, comps = parse_body c in
      check_safe line_no ~what:("query " ^ name) head atoms comps;
      state.queries <-
        (name, Logic.Cq.make ~name ~comps head atoms) :: state.queries
  | d -> fail line_no "unknown directive '%s'" d

(* One pass of the cursor over the text.  A directive must end its
   line: a token left after it is an error, not dropped. *)
let document_of_string text =
  let state =
    {
      schema = Schema.empty;
      facts = [||];
      n_facts = 0;
      last_rel = None;
      ics = [];
      queries = [];
    }
  in
  let c = cursor text in
  while c.kind <> Eof do
    let line = c.line in
    (match c.kind with
    | Eol | Eof -> ()
    | Ident -> (
        try directive state c
        with Invalid_argument msg -> raise (Error (line, msg)))
    | Quoted | Sym -> fail line "malformed line");
    match c.kind with
    | Eol -> advance c
    | Eof -> ()
    | Ident | Quoted | Sym ->
        fail c.line "unexpected '%s' after the directive" (describe c)
  done;
  {
    schema = state.schema;
    instance =
      Instance.of_array state.schema (Array.sub state.facts 0 state.n_facts);
    ics = List.rev state.ics;
    queries = List.rev state.queries;
  }

let document_of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  document_of_string text

let find_query (doc : document) name = List.assoc name doc.queries

let find_ucq (doc : document) name =
  match
    List.filter_map
      (fun (n, q) -> if String.equal n name then Some q else None)
      doc.queries
  with
  | [] -> raise Not_found
  | disjuncts -> Logic.Ucq.make ~name disjuncts
