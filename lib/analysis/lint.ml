module Atom = Logic.Atom
module Cmp = Logic.Cmp

let rule_subject i = Printf.sprintf "rule#%d" (i + 1)

let mem v vs = List.exists (String.equal v) vs

(* Shared safety core: [bound] are the variables bound by positive body
   atoms; every variable of [head]/[neg]/[comps] must be among them. *)
let safety_findings ~subject ~bound ~head_vars ~neg_vars ~comp_vars =
  let finding code what v =
    Finding.make Finding.Error ~code ~subject
      (Printf.sprintf "%s variable %s is not bound by a positive body atom"
         what v)
  in
  List.filter_map
    (fun v -> if mem v bound then None else Some (finding "safety/unbound-head-var" "head" v))
    (List.sort_uniq String.compare head_vars)
  @ List.filter_map
      (fun v -> if mem v bound then None else Some (finding "safety/unsafe-negation" "negated" v))
      (List.sort_uniq String.compare neg_vars)
  @ List.filter_map
      (fun v ->
        if mem v bound then None
        else Some (finding "safety/ground-unsafe-comparison" "comparison" v))
      (List.sort_uniq String.compare comp_vars)

let datalog_rule ?(subject = "rule") (r : Datalog.Rule.t) =
  safety_findings ~subject
    ~bound:(List.concat_map Atom.vars r.body_pos)
    ~head_vars:(Atom.vars r.head)
    ~neg_vars:(List.concat_map Atom.vars r.body_neg)
    ~comp_vars:(List.concat_map Cmp.vars r.comps)

let asp_rule ?(subject = "rule") (r : Asp.Syntax.rule) =
  safety_findings ~subject
    ~bound:(List.concat_map Atom.vars r.pos)
    ~head_vars:(List.concat_map Atom.vars r.head)
    ~neg_vars:(List.concat_map Atom.vars r.neg)
    ~comp_vars:(List.concat_map Cmp.vars r.comps)

let per_rule lint rules =
  List.concat (List.mapi (fun i r -> lint ?subject:(Some (rule_subject i)) r) rules)

let unused_findings graph =
  let defined = Depgraph.defined graph in
  let used =
    List.map (fun (b, _, _) -> b) (Depgraph.edges graph)
    |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun p ->
      if mem p used then None
      else
        Some
          (Finding.make Finding.Info ~code:"structure/unused-predicate"
             ~subject:p "defined by a rule but never used in any body"))
    defined

let undefined_findings ?edb graph =
  match edb with
  | None -> []
  | Some edb ->
      let defined = Depgraph.defined graph in
      let used =
        List.map (fun (b, _, _) -> b) (Depgraph.edges graph)
        |> List.sort_uniq String.compare
      in
      List.filter_map
        (fun p ->
          if mem p defined || mem p edb then None
          else
            Some
              (Finding.make Finding.Warning ~code:"structure/undefined-predicate"
                 ~subject:p
                 "used in a body but neither defined by a rule nor extensional \
                  (always empty)"))
        used

let datalog_program ?edb (p : Datalog.Program.t) =
  let graph = Depgraph.of_datalog p in
  let strat =
    match Depgraph.negative_cycle_witness graph with
    | None -> []
    | Some (b, h) ->
        [
          Finding.make Finding.Error ~code:"stratification/negative-cycle"
            ~subject:h
            (Printf.sprintf
               "not stratifiable: %s depends negatively on %s inside a \
                recursive component"
               h b);
        ]
  in
  Finding.sort
    (per_rule datalog_rule p.rules
    @ strat @ unused_findings graph @ undefined_findings ?edb graph)

(* Query-level lints.  A self-join silently demotes the attack-graph
   trichotomy to the structural dichotomy checks (verdict [Unknown]: no
   rewriting; the engine compiles to SAT, or enumerates under INDs); surface that degradation as a
   warning so analyze reports it without failing the CI lint gate. *)
let query_findings ?subject (q : Logic.Cq.t) =
  let subject = Option.value subject ~default:q.Logic.Cq.name in
  let rels = List.map (fun (a : Atom.t) -> a.rel) q.Logic.Cq.body in
  List.sort_uniq String.compare rels
  |> List.filter_map (fun r ->
         let count = List.length (List.filter (String.equal r) rels) in
         if count < 2 then None
         else
           Some
             (Finding.make Finding.Warning ~code:"query/self-join" ~subject
                (Printf.sprintf
                   "relation %s occurs in %d atoms: the attack-graph \
                    trichotomy assumes self-join-freeness, so \
                    classification falls back to the dichotomy checks and \
                    the query is answered by SAT compilation under \
                    denial-class constraints (repair enumeration \
                    otherwise)"
                   r count)))

let asp_program (p : Asp.Syntax.t) =
  let graph = Depgraph.of_asp p in
  let disjunctive =
    List.exists (fun (r : Asp.Syntax.rule) -> List.length r.head > 1) p.rules
  in
  let shape =
    if not disjunctive then []
    else if Asp.Shift.is_head_cycle_free p then
      [
        Finding.make Finding.Info ~code:"structure/head-cycle-free"
          ~subject:"program"
          "disjunctive but head-cycle-free: shifting to a normal program \
           preserves the stable models";
      ]
    else
      [
        Finding.make Finding.Warning ~code:"structure/genuinely-disjunctive"
          ~subject:"program"
          "disjunctive head atoms support each other positively: shifting is \
           unsound, the Σ²p fragment applies";
      ]
  in
  let strat =
    match Depgraph.negative_cycle_witness graph with
    | None -> []
    | Some (b, h) ->
        [
          Finding.make Finding.Info ~code:"structure/unstratified"
            ~subject:h
            (Printf.sprintf
               "%s depends negatively on %s through a cycle: stable-model \
                semantics required (expected for repair programs)"
               h b);
        ]
  in
  Finding.sort (per_rule asp_rule p.rules @ shape @ strat)
