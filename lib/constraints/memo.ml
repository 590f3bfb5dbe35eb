module Instance = Relational.Instance

let capacity = 8

type 'a t = {
  hits : Obs.Counter.t;
  misses : Obs.Counter.t option;
  lock : Mutex.t;
  mutable entries : (int * string * Instance.t * 'a) list;
      (* most recently used first *)
}

let create ~hits ?misses () =
  { hits; misses; lock = Mutex.create (); entries = [] }

(* Constraints are plain data whose constants are [Value.t]s, so their
   no-sharing marshalled form is injective; [Ic.pp] is not (it prints 1
   and "1" alike, and a CFD without its pattern). *)
let fingerprint (ics : Ic.t list) = Marshal.to_string ics [ No_sharing ]

let find_or_build ?patch t inst ics build =
  let fp = fingerprint ics in
  let matches inst =
    let key = Instance.digest inst in
    fun (k, f, cached, _) ->
      k = key && String.equal f fp
      && (cached == inst || Instance.equal_with_tids cached inst)
  in
  (* A hit verified on an equal instance is filed under the reader's:
     its next lookup is a physical hit, and the instance it was built
     for (a closed session's, say) is no longer kept alive. *)
  let hit =
    let here = matches inst in
    Mutex.protect t.lock (fun () ->
        match List.find_opt here t.entries with
        | Some ((k, f, cached, v) as e) ->
            let front = if cached == inst then e else (k, f, inst, v) in
            t.entries <- front :: List.filter (fun e' -> e' != e) t.entries;
            Some v
        | None -> None)
  in
  let file v =
    Mutex.protect t.lock (fun () ->
        t.entries <-
          (Instance.digest inst, fp, inst, v)
          :: List.filteri (fun i _ -> i < capacity - 1) t.entries)
  in
  (* The base's entry leaves the memo before [f] changes its value, so
     no lookup of the base is handed a value in mid-change. *)
  let take base =
    let there = matches base in
    Mutex.protect t.lock (fun () ->
        match List.find_opt there t.entries with
        | Some ((_, _, _, v) as e) ->
            t.entries <- List.filter (fun e' -> e' != e) t.entries;
            Some v
        | None -> None)
  in
  match hit with
  | Some v ->
      Obs.Counter.incr t.hits;
      v
  | None -> (
      match Option.bind patch (fun (base, f) -> Option.bind (take base) f) with
      | Some v ->
          Obs.Counter.incr t.hits;
          file v;
          v
      | None ->
          Option.iter Obs.Counter.incr t.misses;
          let v = build () in
          file v;
          v)
