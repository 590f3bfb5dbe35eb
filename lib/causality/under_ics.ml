module Instance = Relational.Instance
module Tid = Relational.Tid
module Value = Relational.Value
module Violation = Constraints.Violation

type t = {
  tid : Tid.t;
  responsibility : float;
  min_contingency_size : int;
  a_min_contingency : Tid.Set.t;
}

let has_answer q answer inst =
  List.exists
    (fun row -> List.for_all2 Value.equal row answer)
    (Logic.Cq.answers q inst)

let rec subsets k pool =
  if k = 0 then [ [] ]
  else
    match pool with
    | [] -> []
    | x :: rest -> List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let actual_causes inst schema ~ics q ~answer =
  if not (Violation.is_consistent inst schema ics) then
    invalid_arg "Under_ics.actual_causes: instance violates the constraints";
  if not (has_answer q answer inst) then
    invalid_arg "Under_ics.actual_causes: not an answer";
  let tids = Tid.Set.elements (Instance.tids inst) in
  let n = List.length tids in
  let found = Hashtbl.create 16 in
  let without set =
    Instance.restrict inst (Tid.Set.diff (Instance.tids inst) set)
  in
  for k = 0 to n - 1 do
    List.iter
      (fun gamma ->
        let gamma_set = Tid.Set.of_list gamma in
        let d_gamma = without gamma_set in
        if
          Violation.is_consistent d_gamma schema ics
          && has_answer q answer d_gamma
        then
          List.iter
            (fun tid ->
              if (not (Tid.Set.mem tid gamma_set)) && not (Hashtbl.mem found tid)
              then
                let d_tau = Instance.delete d_gamma tid in
                if
                  Violation.is_consistent d_tau schema ics
                  && not (has_answer q answer d_tau)
                then
                  Hashtbl.replace found tid
                    {
                      tid;
                      responsibility = 1.0 /. float_of_int (1 + k);
                      min_contingency_size = k;
                      a_min_contingency = gamma_set;
                    })
            tids)
      (subsets k tids)
  done;
  Hashtbl.fold (fun _ c acc -> c :: acc) found []
  |> List.sort (fun a b -> Tid.compare a.tid b.tid)

let responsibility inst schema ~ics q ~answer tid =
  match
    List.find_opt
      (fun c -> Tid.equal c.tid tid)
      (actual_causes inst schema ~ics q ~answer)
  with
  | Some c -> c.responsibility
  | None -> 0.0
