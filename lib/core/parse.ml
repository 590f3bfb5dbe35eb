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

(* --- tokenizing ------------------------------------------------------- *)

type token =
  | Ident of string
  | Quoted of string
  | Sym of string (* ( ) , : [ ] ; and operators *)

let tokenize line s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '%' then i := n
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '"' do
        incr j
      done;
      if !j >= n then fail line "unterminated string";
      push (Quoted (String.sub s (!i + 1) (!j - !i - 1)));
      i := !j + 1
    end
    else if
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_' || c = '\''
    then begin
      let j = ref !i in
      while
        !j < n
        &&
        let d = s.[!j] in
        (d >= 'a' && d <= 'z')
        || (d >= 'A' && d <= 'Z')
        || (d >= '0' && d <= '9')
        || d = '_' || d = '\'' || d = '.'
      do
        incr j
      done;
      push (Ident (String.sub s !i (!j - !i)));
      i := !j
    end
    else begin
      (* multi-char operators *)
      let two = if !i + 1 < n then String.sub s !i 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | ":-" ->
          push (Sym two);
          i := !i + 2
      | _ ->
          push (Sym (String.make 1 c));
          i := !i + 1
    end
  done;
  List.rev !toks

(* --- token-stream helpers --------------------------------------------- *)

type stream = { mutable toks : token list; line : int }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let next st =
  match st.toks with
  | [] -> fail st.line "unexpected end of line"
  | t :: rest ->
      st.toks <- rest;
      t

let expect_sym st s =
  match next st with
  | Sym s' when String.equal s s' -> ()
  | _ -> fail st.line "expected '%s'" s

let ident st =
  match next st with
  | Ident s -> s
  | Quoted s -> s
  | Sym s -> fail st.line "expected identifier, got '%s'" s

let is_all_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let value_of_token line = function
  | Quoted s -> Value.str s
  | Ident s when String.equal s "null" -> Value.Null
  | Ident s when is_all_digits s -> Value.int (int_of_string s)
  | Ident s -> Value.str s
  | Sym s -> fail line "expected value, got '%s'" s

let term_of_token line = function
  | Quoted s -> Term.Const (Value.str s)
  | Ident s when String.equal s "null" -> Term.Const Value.Null
  | Ident s when is_all_digits s -> Term.int (int_of_string s)
  | Ident s when s.[0] >= 'A' && s.[0] <= 'Z' -> Term.var s
  | Ident s -> Term.str s
  | Sym s -> fail line "expected term, got '%s'" s

let comma_list st parse =
  let rec go acc =
    let x = parse st in
    match peek st with
    | Some (Sym ",") ->
        ignore (next st);
        go (x :: acc)
    | _ -> List.rev (x :: acc)
  in
  go []

let paren_list st parse =
  expect_sym st "(";
  match peek st with
  | Some (Sym ")") ->
      ignore (next st);
      []
  | _ ->
      let xs = comma_list st parse in
      expect_sym st ")";
      xs

(* atoms and comparisons in rule bodies *)
let parse_atom st name =
  let args = paren_list st (fun st -> term_of_token st.line (next st)) in
  Atom.make name args

let op_of_sym line = function
  | "=" -> Cmp.Eq
  | "<>" -> Cmp.Neq
  | "<" -> Cmp.Lt
  | "<=" -> Cmp.Le
  | ">" -> Cmp.Gt
  | ">=" -> Cmp.Ge
  | s -> fail line "unknown comparison operator '%s'" s

(* A body element: either Pred(args) or term OP term. *)
let parse_body_element st =
  let first = next st in
  match first, peek st with
  | Ident name, Some (Sym "(") -> `Atom (parse_atom st name)
  | t, Some (Sym op) when List.mem op [ "="; "<>"; "<"; "<="; ">"; ">=" ] ->
      ignore (next st);
      let right = term_of_token st.line (next st) in
      `Cmp (Cmp.make (op_of_sym st.line op) (term_of_token st.line t) right)
  | _ -> fail st.line "expected atom or comparison"

let parse_body st =
  let elems = comma_list st parse_body_element in
  let atoms = List.filter_map (function `Atom a -> Some a | `Cmp _ -> None) elems in
  let comps = List.filter_map (function `Cmp c -> Some c | `Atom _ -> None) elems in
  (atoms, comps)

(* --- directives ------------------------------------------------------- *)

type state = {
  mutable schema : Schema.t;
  mutable rows : (string * Value.t list) list; (* reversed *)
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

let parse_line state line_no raw =
  let toks = tokenize line_no raw in
  match toks with
  | [] -> ()
  | Ident "relation" :: rest ->
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      let attrs = paren_list st ident in
      state.schema <- Schema.add_relation state.schema ~name ~attributes:attrs
  | Ident "row" :: rest ->
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      check_rel state line_no name;
      let values = paren_list st (fun st -> value_of_token st.line (next st)) in
      state.rows <- (name, values) :: state.rows
  | Ident "key" :: rest ->
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      check_rel state line_no name;
      let attrs = paren_list st ident in
      let positions = List.map (attr_index state line_no name) attrs in
      state.ics <- Ic.key ~rel:name positions :: state.ics
  | Ident "fd" :: rest ->
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      check_rel state line_no name;
      expect_sym st ":";
      let lhs = comma_list st ident in
      expect_sym st "-";
      expect_sym st ">";
      let rhs = comma_list st ident in
      state.ics <-
        Ic.fd ~rel:name
          ~lhs:(List.map (attr_index state line_no name) lhs)
          ~rhs:(List.map (attr_index state line_no name) rhs)
        :: state.ics
  | Ident "ind" :: rest ->
      let st = { toks = rest; line = line_no } in
      let sub = ident st in
      check_rel state line_no sub;
      expect_sym st "[";
      let sub_attrs = comma_list st ident in
      expect_sym st "]";
      expect_sym st "<=";
      let sup = ident st in
      check_rel state line_no sup;
      expect_sym st "[";
      let sup_attrs = comma_list st ident in
      expect_sym st "]";
      state.ics <-
        Ic.ind
          ~sub:(sub, List.map (attr_index state line_no sub) sub_attrs)
          ~sup:(sup, List.map (attr_index state line_no sup) sup_attrs)
        :: state.ics
  | Ident "cfd" :: rest ->
      (* cfd R: a = 44, b -> c [= v]: pattern constants inline. *)
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      check_rel state line_no name;
      expect_sym st ":";
      let parse_spec st =
        let attr = ident st in
        match peek st with
        | Some (Sym "=") ->
            ignore (next st);
            let v = value_of_token st.line (next st) in
            (attr, Some v)
        | _ -> (attr, None)
      in
      let lhs = comma_list st parse_spec in
      expect_sym st "-";
      expect_sym st ">";
      let rhs = comma_list st parse_spec in
      let pos (attr, _) = attr_index state line_no name attr in
      let pat =
        List.map (fun ((_, v) as spec) -> (pos spec, v)) (lhs @ rhs)
      in
      state.ics <-
        Ic.cfd ~rel:name ~lhs:(List.map pos lhs) ~rhs:(List.map pos rhs) ~pat
        :: state.ics
  | Ident "dc" :: rest ->
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      expect_sym st ":";
      let atoms, comps = parse_body st in
      check_safe line_no ~what:("dc " ^ name) [] atoms comps;
      state.ics <- Ic.denial ~name ~comps atoms :: state.ics
  | Ident "query" :: rest ->
      let st = { toks = rest; line = line_no } in
      let name = ident st in
      let head = paren_list st (fun st -> term_of_token st.line (next st)) in
      expect_sym st ":-";
      let atoms, comps = parse_body st in
      check_safe line_no ~what:("query " ^ name) head atoms comps;
      state.queries <-
        (name, Logic.Cq.make ~name ~comps head atoms) :: state.queries
  | Ident d :: _ -> fail line_no "unknown directive '%s'" d
  | _ -> fail line_no "malformed line"

let document_of_string text =
  let state = { schema = Schema.empty; rows = []; ics = []; queries = [] } in
  List.iteri
    (fun i raw ->
      try parse_line state (i + 1) raw
      with Invalid_argument msg -> raise (Error (i + 1, msg)))
    (String.split_on_char '\n' text);
  let instance =
    List.fold_left
      (fun acc (rel, values) ->
        Instance.add acc (Relational.Fact.make rel values))
      (Instance.create state.schema)
      (List.rev state.rows)
  in
  {
    schema = state.schema;
    instance;
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
