module Instance = Relational.Instance
module Schema = Relational.Schema
module Tid = Relational.Tid
module Value = Relational.Value
module Ic = Constraints.Ic

type suggestion = {
  cell : Tid.Cell.t;
  current : Value.t;
  proposed : Value.t;
  confidence : float;
}

let check_supported ics =
  List.iter
    (fun ic ->
      match ic with
      | Ic.Fd _ | Ic.Key _ | Ic.Cfd _ -> ()
      | Ic.Denial _ | Ic.Ind _ ->
          invalid_arg
            (Printf.sprintf "Signals: unsupported constraint %s" (Ic.name ic)))
    ics

(* The FDs induced by the constraints: (rel, lhs positions, rhs position). *)
let fd_components schema ics =
  List.concat_map
    (fun ic ->
      match ic with
      | Ic.Fd f -> List.map (fun b -> (f.Ic.rel, f.Ic.lhs, b)) f.Ic.rhs
      | Ic.Key (rel, ps) ->
          let f = Ic.key_to_fd schema rel ps in
          List.map (fun b -> (rel, f.Ic.lhs, b)) f.Ic.rhs
      | Ic.Cfd c -> List.map (fun b -> (c.Ic.rel, c.Ic.lhs, b)) c.Ic.rhs
      | Ic.Denial _ | Ic.Ind _ -> [])
    ics

let agree_on lhs (row1 : Value.t array) (row2 : Value.t array) =
  List.for_all
    (fun p ->
      (not (Value.is_null row1.(p)))
      && (not (Value.is_null row2.(p)))
      && Value.equal row1.(p) row2.(p))
    lhs

(* Votes for candidate value v at position [pos] of [row]: block majority
   plus co-occurrence with the row's other attributes. *)
let votes inst rel ~pos ~block (row : Value.t array) v =
  let block_votes =
    List.fold_left
      (fun acc (_, r) -> if Value.equal r.(pos) v then acc +. 1.0 else acc)
      0.0 block
  in
  let cooc =
    List.fold_left
      (fun acc (r : Value.t array) ->
        if Value.equal r.(pos) v then
          let shared = ref 0 and total = ref 0 in
          Array.iteri
            (fun i u ->
              if i <> pos then begin
                incr total;
                if Value.equal u row.(i) then incr shared
              end)
            r;
          acc +. (float_of_int !shared /. float_of_int (max 1 !total))
        else acc)
      0.0
      (Instance.rows inst ~rel)
  in
  block_votes +. (0.5 *. cooc)

let suggest inst schema ics =
  check_supported ics;
  let components = fd_components schema ics in
  let suggestions =
    List.concat_map
      (fun (rel, lhs, pos) ->
        let tuples = Instance.tuples inst ~rel in
        List.concat_map
          (fun (tid, row) ->
            let block =
              List.filter (fun (_, r) -> agree_on lhs row r) tuples
            in
            let distinct_values =
              List.sort_uniq Value.compare (List.map (fun (_, r) -> r.(pos)) block)
            in
            if List.length distinct_values <= 1 then []
            else begin
              (* The block disagrees: score all candidates. *)
              let scored =
                List.map
                  (fun v -> (v, votes inst rel ~pos ~block row v))
                  distinct_values
              in
              let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 scored in
              let best, best_score =
                List.fold_left
                  (fun (bv, bs) (v, s) -> if s > bs then (v, s) else (bv, bs))
                  (Value.Null, neg_infinity) scored
              in
              if Value.equal row.(pos) best then []
              else
                [
                  {
                    cell = Tid.Cell.make tid (pos + 1);
                    current = row.(pos);
                    proposed = best;
                    confidence = (if total > 0.0 then best_score /. total else 0.0);
                  };
                ]
            end)
          tuples)
      components
  in
  List.sort
    (fun a b ->
      match Float.compare b.confidence a.confidence with
      | 0 -> Tid.Cell.compare a.cell b.cell
      | c -> c)
    suggestions

type outcome = {
  cleaned : Instance.t;
  applied : suggestion list;
  skipped : suggestion list;
  consistent : bool;
}

let apply ?(min_confidence = 0.6) ?(max_rounds = 10) inst schema ics =
  let rec go inst applied round =
    let suggestions = suggest inst schema ics in
    let good, low =
      List.partition (fun s -> s.confidence >= min_confidence) suggestions
    in
    match good with
    | [] ->
        {
          cleaned = inst;
          applied = List.rev applied;
          skipped = low;
          consistent = Constraints.Violation.is_consistent inst schema ics;
        }
    | s :: _ when round < max_rounds ->
        (* Apply one highest-confidence suggestion, then re-derive: each fix
           changes the evidence for the rest. *)
        let inst = Instance.update_cell inst s.cell s.proposed in
        go inst (s :: applied) (round + 1)
    | _ ->
        {
          cleaned = inst;
          applied = List.rev applied;
          skipped = suggestions;
          consistent = Constraints.Violation.is_consistent inst schema ics;
        }
  in
  go inst [] 0
