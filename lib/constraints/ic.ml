module Schema = Relational.Schema
module Value = Relational.Value
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp

type denial = { name : string; atoms : Atom.t list; comps : Cmp.t list }
type fd = { rel : string; lhs : int list; rhs : int list }
type ind = { sub : string * int list; sup : string * int list }
type pattern = (int * Value.t option) list
type cfd = { rel : string; lhs : int list; rhs : int list; pat : pattern }

type t =
  | Denial of denial
  | Fd of fd
  | Key of string * int list
  | Ind of ind
  | Cfd of cfd

let denial ?(name = "dc") ?(comps = []) atoms = Denial { name; atoms; comps }
let fd ~rel ~lhs ~rhs = Fd { rel; lhs; rhs }
let key ~rel positions = Key (rel, positions)
let ind ~sub ~sup = Ind { sub; sup }
let cfd ~rel ~lhs ~rhs ~pat = Cfd { rel; lhs; rhs; pat }

let positions_name ps = String.concat "," (List.map string_of_int ps)

let name = function
  | Denial d -> d.name
  | Fd f -> Printf.sprintf "fd:%s:%s->%s" f.rel (positions_name f.lhs) (positions_name f.rhs)
  | Key (r, ps) -> Printf.sprintf "key:%s:%s" r (positions_name ps)
  | Ind i ->
      Printf.sprintf "ind:%s[%s]⊆%s[%s]" (fst i.sub) (positions_name (snd i.sub))
        (fst i.sup) (positions_name (snd i.sup))
  | Cfd c -> Printf.sprintf "cfd:%s:%s->%s" c.rel (positions_name c.lhs) (positions_name c.rhs)

let of_formula ?(name = "ic") f =
  match Logic.Clause.of_formula f with
  | None -> None
  | Some clauses ->
      let denial_of i (c : Logic.Clause.t) =
        let atoms =
          List.filter_map
            (function Logic.Clause.Neg a -> Some a | _ -> None)
            c.literals
        in
        let comps =
          List.filter_map
            (function
              | Logic.Clause.Builtin cmp -> Some (Cmp.negate cmp)
              | _ -> None)
            c.literals
        in
        let positive =
          List.exists
            (function Logic.Clause.Pos _ -> true | _ -> false)
            c.literals
        in
        if positive then None
        else Some (Denial { name = Printf.sprintf "%s#%d" name i; atoms; comps })
      in
      let rec all i = function
        | [] -> Some []
        | c :: rest -> (
            match denial_of i c with
            | None -> None
            | Some d -> (
                match all (i + 1) rest with
                | None -> None
                | Some ds -> Some (d :: ds)))
      in
      all 0 clauses

let key_to_fd schema rel positions =
  let n = Schema.arity schema rel in
  let rhs = List.filter (fun i -> not (List.mem i positions)) (List.init n Fun.id) in
  { rel; lhs = positions; rhs }

let as_fd schema = function
  | Fd f -> Some f
  | Key (r, ps) -> Some (key_to_fd schema r ps)
  | Denial _ | Ind _ | Cfd _ -> None

let vars prefix n = List.init n (fun i -> Term.Var (Printf.sprintf "%s%d" prefix i))

(* One two-tuple denial per determined attribute: R(x̄) ∧ R(ȳ) with x and y
   agreeing on [lhs] (via equality comparisons, so NULL never triggers a
   violation, matching SQL semantics) and differing on the attribute. *)
let fd_denials ?(extra = []) ~tag schema (f : fd) =
  let n = Schema.arity schema f.rel in
  let xs = vars "x" n and ys = vars "y" n in
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let agree = List.map (fun i -> Cmp.eq xa.(i) ya.(i)) f.lhs in
  List.map
    (fun b ->
      {
        name = Printf.sprintf "%s#%d" tag b;
        atoms = [ Atom.make f.rel xs; Atom.make f.rel ys ];
        comps = agree @ [ Cmp.neq xa.(b) ya.(b) ] @ extra;
      })
    f.rhs

let cfd_denials schema (c : cfd) =
  let n = Schema.arity schema c.rel in
  let xs = vars "x" n and ys = vars "y" n in
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let pat_of i = Option.join (List.assoc_opt i c.pat) in
  let lhs_consts terms =
    List.filter_map
      (fun i ->
        match pat_of i with
        | Some v -> Some (Cmp.eq terms.(i) (Term.Const v))
        | None -> None)
      c.lhs
  in
  let tag = Printf.sprintf "cfd:%s" c.rel in
  List.concat_map
    (fun b ->
      match pat_of b with
      | Some v ->
          (* Constant right-hand pattern: a single matching tuple must carry
             the constant. *)
          [
            {
              name = Printf.sprintf "%s#%d=const" tag b;
              atoms = [ Atom.make c.rel xs ];
              comps = lhs_consts xa @ [ Cmp.neq xa.(b) (Term.Const v) ];
            };
          ]
      | None ->
          let agree = List.map (fun i -> Cmp.eq xa.(i) ya.(i)) c.lhs in
          [
            {
              name = Printf.sprintf "%s#%d" tag b;
              atoms = [ Atom.make c.rel xs; Atom.make c.rel ys ];
              comps =
                agree @ lhs_consts xa @ lhs_consts ya
                @ [ Cmp.neq xa.(b) ya.(b) ];
            };
          ])
    c.rhs

let to_denials schema = function
  | Denial d -> Some [ d ]
  | Fd f -> Some (fd_denials ~tag:(name (Fd f)) schema f)
  | Key (r, ps) ->
      let f = key_to_fd schema r ps in
      Some (fd_denials ~tag:(name (Key (r, ps))) schema f)
  | Cfd c -> Some (cfd_denials schema c)
  | Ind _ -> None

let is_denial_class = function
  | Denial _ | Fd _ | Key _ | Cfd _ -> true
  | Ind _ -> false

let denial_clause (d : denial) =
  Logic.Clause.make
    (List.map (fun a -> Logic.Clause.Neg a) d.atoms
    @ List.map (fun c -> Logic.Clause.Builtin (Cmp.negate c)) d.comps)

let ind_clause schema (i : ind) =
  let sub_rel, sub_ps = i.sub and sup_rel, sup_ps = i.sup in
  let nsub = Schema.arity schema sub_rel and nsup = Schema.arity schema sup_rel in
  if List.length sub_ps <> List.length sup_ps then
    invalid_arg "Ic: inclusion dependency with mismatched position lists";
  if List.exists (fun q -> q < 0 || q >= nsup) sup_ps then
    invalid_arg "Ic: inclusion dependency position out of range";
  let xs = Array.of_list (vars "x" nsub) in
  let head_args =
    List.init nsup (fun q ->
        match List.find_opt (fun (_, q') -> q' = q) (List.combine sub_ps sup_ps) with
        | Some (p, _) -> xs.(p)
        | None -> Term.Var (Printf.sprintf "z%d" q))
  in
  let existential =
    List.exists (function Term.Var v -> String.length v > 0 && v.[0] = 'z' | _ -> false)
      head_args
  in
  if existential then []
  else
    [
      Logic.Clause.make
        [
          Logic.Clause.Neg (Atom.make sub_rel (Array.to_list xs));
          Logic.Clause.Pos (Atom.make sup_rel head_args);
        ];
    ]

let to_clauses schema ic =
  match ic with
  | Ind i -> ind_clause schema i
  | _ -> (
      match to_denials schema ic with
      | Some ds -> List.map denial_clause ds
      | None -> [])

let pp ppf ic =
  match ic with
  | Denial d ->
      Format.fprintf ppf "¬∃(%a%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ∧ ")
           Atom.pp)
        d.atoms
        (fun ppf comps ->
          List.iter (fun c -> Format.fprintf ppf " ∧ %a" Cmp.pp c) comps)
        d.comps
  | _ -> Format.pp_print_string ppf (name ic)
