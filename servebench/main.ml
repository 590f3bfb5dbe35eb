(* The cqa_server benchmark: one closed-loop client, one Unix-domain
   socket, one in-process Server.Loop configured as cqa_server's
   defaults configure it (workload store of 256, progress armed,
   jobs=1, answer cache of 512 — 64 in cold_routes, see below).

     servebench.exe --workload cold_routes|update_mix
                    --seed N --seconds S --trace 0|1

   The client sends its next request only after the previous response
   has arrived, so nothing ever queues: waiting time is zero by
   construction and is not reported.  The server runs in this process:
   the client interleaves Loop.step with non-blocking socket reads and
   writes, so a round trip crosses protocol parse, Handler (session,
   answer cache, Engine.plan, the route executor), render and the
   socket, and nothing else.

   Every response is checked against an answer known by construction
   (see Docs).  The last stdout line is one JSON object: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1. *)

module P = Server.Protocol

(* ---- small statistics ------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = pct (sorted a) 0.5
let mean l =
  if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Seconds on the monotonic clock, nanosecond resolution: request
   latencies on the cached path are tens of microseconds, where the
   wall clock's double already rounds to half a microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- host-drift probe ------------------------------------------------ *)

(* A fixed pure-OCaml loop, timed at the start and end of every run: a
   run on a slowed host shows here and not only in the metrics. *)
let calib_ms () =
  let once () =
    let t0 = now () in
    let h = Hashtbl.create 4096 in
    let acc = ref 0 in
    for i = 1 to 200_000 do
      Hashtbl.replace h (i land 4095) i;
      match Hashtbl.find_opt h ((i * 7) land 4095) with
      | Some v -> acc := !acc + (v land 1)
      | None -> ()
    done;
    ignore (Sys.opaque_identity !acc);
    (now () -. t0) *. 1e3
  in
  median (Array.init 5 (fun _ -> once ()))

(* Round trips per latency class, in flat float arrays: the cached
   workload completes half a million requests a run, and boxed samples
   would dominate the process's own peak RSS. *)
type buf = { mutable a : float array; mutable len : int }

let push b v =
  if b.len = Array.length b.a then begin
    let a = Array.make ((2 * b.len) + 64) 0.0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- v;
  b.len <- b.len + 1

(* ---- the client ------------------------------------------------------ *)

type client = { fd : Unix.file_descr; buf : Bytes.t; acc : Buffer.t }

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 65536; acc = Buffer.create 65536 }

let send loop c text =
  let pos = ref 0 in
  while !pos < String.length text do
    match Unix.write_substring c.fd text !pos (String.length text - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        ignore (Server.Loop.step ~timeout:0.01 loop)
  done

(* A response ends with a lone "." line. *)
let complete acc =
  let n = Buffer.length acc in
  n >= 3 && Buffer.nth acc (n - 1) = '\n' && Buffer.nth acc (n - 2) = '.'
  && Buffer.nth acc (n - 3) = '\n'

(* Step the server until one whole response has arrived; its text,
   terminator line excluded. *)
let recv loop c =
  Buffer.clear c.acc;
  let deadline = now () +. 60.0 in
  while not (complete c.acc) do
    ignore (Server.Loop.step ~timeout:0.01 loop);
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> failwith "server closed the connection"
    | n -> Buffer.add_subbytes c.acc c.buf 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        if now () > deadline then
          failwith "no response within 60 s"
  done;
  Buffer.sub c.acc 0 (Buffer.length c.acc - 3)

(* ---- requests -------------------------------------------------------- *)

type kind =
  | Query of Docs.t * string  (** session document, query alias *)
  | Update of Docs.t * [ `Add | `Del ] * Docs.fact
  | Check of Docs.t

type req = {
  kind : kind;
  line : string;
  tag : string;  (** latency class: command and query class *)
  expect_head : string;
  expect_body : string list option;  (** sorted; [None]: not checked *)
}

let query_req (d : Docs.t) alias ~body =
  {
    kind = Query (d, alias);
    line = Printf.sprintf "QUERY %s %s" d.sid alias;
    tag = "query." ^ Docs.cls_name d.cls;
    expect_head = Printf.sprintf "OK answers=%d" (List.length body);
    expect_body = Some body;
  }

let update_req (d : Docs.t) op (f : Docs.fact) ~size ~tag =
  {
    kind = Update (d, op, f);
    line =
      Printf.sprintf "UPDATE %s %s %s" d.sid
        (match op with `Add -> "add" | `Del -> "del")
        (Docs.fact_text f);
    tag;
    expect_head = Printf.sprintf "OK size=%d" size;
    expect_body = Some [];
  }

let check_req (d : Docs.t) =
  {
    kind = Check d;
    line = "CHECK " ^ d.sid;
    tag = "check." ^ Docs.cls_name d.cls;
    expect_head = "OK inconsistent";
    expect_body = None;
  }

(* A response matches when its status line is the expected one (CHECK:
   starts with it) and its body, sorted, is the expected body. *)
let matches r lines =
  match lines with
  | [] -> false
  | head :: body -> (
      (match r.expect_body with
      | None -> String.starts_with ~prefix:r.expect_head head
      | Some _ -> String.equal head r.expect_head)
      &&
      match r.expect_body with
      | None -> true
      | Some expected -> List.sort String.compare body = expected)

(* ---- workloads ------------------------------------------------------- *)

type workload = {
  name : string;
  cache_capacity : int;
  warm : req list;  (** the untimed warm-up pass *)
  next : unit -> req;  (** the seeded request stream *)
}

(* A session whose add/delete pairs alternate: [pending] is the probe
   currently added, if any. *)
type writer = { doc : Docs.t; mutable pending : (Docs.fact * string list) option }

let write_step rng w ~tag =
  match w.pending with
  | Some (f, _) ->
      w.pending <- None;
      update_req w.doc `Del f ~size:w.doc.facts ~tag
  | None ->
      let ((f, _) as p) =
        List.nth w.doc.probes (Random.State.int rng (List.length w.doc.probes))
      in
      w.pending <- Some p;
      update_req w.doc `Add f ~size:(w.doc.facts + 1) ~tag

let current_answer w =
  match w.pending with Some (_, ans) -> ans | None -> w.doc.expected

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

(* cold_routes — a cyclic seeded permutation of 270 keys (2 sessions x
   24 fo, 32 conp, 40 weakcycle, 32 acyclic and 7 selfjoin aliases)
   against a 64-entry cache: a key recurs only after 269 others, so the
   answer cache never hits and the route executors do the work.  The
   alias counts set the class shares (18/24/30/24/5%): in latency order
   the cumulative shares step over 0.5 well inside weakcycle, so the
   median does not sit on a class boundary.  The self-join class is the
   heavy one (2^9 repairs) and the rare one: the host stalls a percent or
   two of requests by 10-60 ms whatever runs, so the p99 of a mix of
   similar classes sits on the knee of that stall tail and moves with
   the host; with the top 5% a class of its own, p99 lands inside that
   class instead.  A 2% trickle of ledger writes carries
   update_p50_ms. *)
let cold_routes rng docs ledger =
  let keys =
    List.concat_map
      (fun (d : Docs.t) -> List.map (fun a -> query_req d a ~body:d.expected) d.aliases)
      docs
  in
  let cycle = Array.of_list (shuffle rng keys) in
  let i = ref 0 in
  let lw = { doc = ledger; pending = None } in
  {
    name = "cold_routes";
    cache_capacity = 64;
    warm = keys;
    next =
      (fun () ->
        if Random.State.float rng 1.0 < 0.02 then write_step rng lw ~tag:"update.ledger"
        else begin
          let r = cycle.(!i mod Array.length cycle) in
          incr i;
          r
        end);
  }

(* update_mix — write-then-read pairs: an UPDATE (add a probe fact, or
   delete the one added before) and a QUERY on a random alias of the
   same session, which must see the new answer.  Every pair invalidates
   the session's cache entries, rebuilds its engine and re-keys the
   conflict-graph and CAvSAT theory caches.  Per 100 steps: 60 pairs on
   the polynomial classes (fo, acyclic, conp; one class in three, then
   one of its two sessions), 6 pairs on the self-join class (the heavy
   enumeration class: as in cold_routes it is the top few percent of
   requests, so p99 lands inside it rather than on the host-stall
   tail), 28 cached reads of the never-updated weak-cycle sessions, and
   6 CHECKs on the polynomial sessions.  The cached reads are the
   workload's protocol and answer-cache path: query_weakcycle_p50_ms
   here is a cache-hit round trip, where cold_routes has none.  They
   also put enough weight at the bottom that the median falls well
   inside the fo/conp group rather than next to the jump to the slower
   group. *)
let update_mix rng docs =
  let of_cls c = List.filter (fun (d : Docs.t) -> d.cls = c) docs in
  let writers c = List.map (fun doc -> { doc; pending = None }) (of_cls c) in
  let poly = List.map (fun c -> (c, writers c)) [ Docs.Fo; Docs.Acyclic; Docs.Conp ] in
  let selfjoin = writers Docs.Selfjoin in
  let cached =
    List.concat_map
      (fun (d : Docs.t) -> List.map (fun a -> query_req d a ~body:d.expected) (take 2 d.aliases))
      (of_cls Docs.Weakcycle)
  in
  let queue = Queue.create () in
  let pair cls ws =
    let w = pick rng ws in
    let u = write_step rng w ~tag:("update." ^ Docs.cls_name cls) in
    Queue.push (query_req w.doc (pick rng w.doc.aliases) ~body:(current_answer w)) queue;
    u
  in
  {
    name = "update_mix";
    cache_capacity = 512;
    warm =
      cached
      @ List.concat_map
          (fun w -> [ query_req w.doc (List.hd w.doc.aliases) ~body:w.doc.expected ])
          (selfjoin @ List.concat_map snd poly);
    next =
      (fun () ->
        if not (Queue.is_empty queue) then Queue.pop queue
        else
          let r = Random.State.int rng 100 in
          if r < 6 then pair Docs.Selfjoin selfjoin
          else if r < 34 then pick rng cached
          else if r < 40 then check_req (pick rng (pick rng poly |> snd)).doc
          else
            let cls, ws = pick rng poly in
            pair cls ws);
  }

(* ---- documents ------------------------------------------------------- *)

let aliases n = List.init n (Printf.sprintf "q%d")

let documents ~seed =
  let rng = Random.State.make [| seed; 0x5e55 |] in
  let off () = 10_000_000 * (1 + Random.State.int rng 8) in
  let two f = List.init 2 f in
  let docs =
    two (fun i ->
        Docs.fo ~rng ~off:(off ()) ~sid:(Printf.sprintf "fo%d" i) ~aliases:(aliases 24) ~n:5000)
    @ two (fun i ->
          Docs.acyclic ~rng ~off:(off ()) ~sid:(Printf.sprintf "acyclic%d" i)
            ~aliases:(aliases 32) ~n:100)
    @ two (fun i ->
          Docs.conp ~rng ~off:(off ()) ~sid:(Printf.sprintf "conp%d" i) ~aliases:(aliases 32)
            ~blocks:300)
    @ two (fun i ->
          Docs.weakcycle ~rng ~off:(off ()) ~sid:(Printf.sprintf "weakcycle%d" i)
            ~aliases:(aliases 40) ~n:80 ~k:5 ~certain:(i = 1))
    @ two (fun i ->
          Docs.selfjoin ~rng ~off:(off ()) ~sid:(Printf.sprintf "selfjoin%d" i)
            ~aliases:(aliases 7) ~n:50 ~k:9)
  in
  (docs, Docs.ledger ~rng ~off:(off ()) ~n:300)

(* ---- per-layer probes (traced run only) ------------------------------ *)

let counter_names =
  [
    "analysis.classified"; "scan.columnar"; "scan.row"; "join.fused";
    "datalog.seminaive.rounds"; "datalog.seminaive.facts"; "cavsat.sat_calls";
    "sat.dpll.conflicts"; "cavsat.theory_cache_hits"; "cavsat.theory_builds";
    "repairs.candidates"; "repairs.found"; "conflict_graph.cache_hits";
    "conflict_graph.cache_misses"; "index.builds";
  ]

let counters = List.map Obs.Counter.make counter_names
let counter_values () = List.map Obs.Counter.value counters

(* Layer totals over the traced requests, plus the spans kept for the
   Chrome trace file. *)
type layers = {
  mutable n : int;
  mutable rtt : float;
  mutable parse : float;
  mutable render : float;
  mutable dispatch : float;
  mutable bytes_out : int;
  mutable handler_self : float;
  mutable queries : int;
  mutable misses : int;
  mutable plan : float;
  mutable exec : float;  (** all executor shadow time *)
  exec_by_route : (string, float * int) Hashtbl.t;
  deltas : (string, int) Hashtbl.t;  (** counter name -> total delta *)
  by_cls : (string, (string, int) Hashtbl.t) Hashtbl.t;
      (** per query class, counter deltas over its cache-missing queries *)
  miss_by_cls : (string, int * int) Hashtbl.t;  (** misses, answer rows *)
  mutable updates : float list;
  mutable checks : float list;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable spans : Obs.Trace.span list;
  mutable nspans : int;
  mutable next_id : int;
}

let new_layers () =
  {
    n = 0; rtt = 0.; parse = 0.; render = 0.; dispatch = 0.; bytes_out = 0;
    handler_self = 0.; queries = 0; misses = 0; plan = 0.; exec = 0.;
    exec_by_route = Hashtbl.create 8; deltas = Hashtbl.create 32;
    by_cls = Hashtbl.create 8; miss_by_cls = Hashtbl.create 8; updates = [];
    checks = []; minor_words = 0.; major_collections = 0; spans = []; nspans = 0; next_id = 0;
  }

let span_limit = 20_000

let keep_span l ~id ~parent name t0 t1 attrs =
  if l.nspans < span_limit then begin
    l.next_id <- max l.next_id id;
    l.spans <- { Obs.Trace.id; parent; name; attrs; t0; t1 } :: l.spans;
    l.nspans <- l.nspans + 1
  end

let timed f =
  let t0 = now () in
  let r = f () in
  (r, t0, now ())

let method_of_route = function
  | "key_rewriting" -> `Key_rewriting
  | "datalog_rewriting" -> `Datalog
  | "sat_compilation" -> `Sat
  | "repair_enumeration" -> `Repair_enumeration
  | _ -> `Auto

let latency_hist handler cmd =
  Obs.Registry.histogram
    (Server.Metrics.registry (Server.Handler.metrics handler))
    ("latency_" ^ String.lowercase_ascii cmd)

(* ---- the run --------------------------------------------------------- *)

(* The process's high-water RSS so far, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  let v = find () in
  close_in ic;
  v

(* peak_rss_mb is read after this many timed requests, not at the end:
   memory that grows per request (the resident SAT theories keep every
   query's clauses) would otherwise grow with the host's speed, since a
   run lasts a fixed time. *)
let rss_requests = 1500

let usage () =
  prerr_endline
    "usage: servebench.exe --workload cold_routes|update_mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload_name = get "--workload" in
  let seed = int_of_string (get "--seed") in
  let seconds = float_of_string (get "--seconds") in
  let trace = get "--trace" = "1" in
  let calib0 = calib_ms () in
  Par.set_default_jobs 1;
  let docs, ledger = documents ~seed in
  let all_docs = docs @ [ ledger ] in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let w =
    match workload_name with
    | "cold_routes" -> cold_routes rng docs ledger
    | "update_mix" -> update_mix rng docs
    | _ -> usage ()
  in
  let dir = ".servebench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let sock = Filename.concat dir (Printf.sprintf "s-%d.sock" (Unix.getpid ())) in
  let loop =
    Server.Loop.create ~cache_capacity:w.cache_capacity
      ~stats:(Obs.Stats.create ~capacity:256 ())
      (Server.Loop.listen_unix sock)
  in
  let handler = Server.Loop.handler loop in
  let metrics = Server.Handler.metrics handler in
  let c = connect sock in
  ignore (Server.Loop.step ~timeout:0.01 loop);
  let attempted = ref 0 and failed = ref 0 in
  let first_failures = ref [] in
  let note_failure r what =
    incr failed;
    if List.length !first_failures < 5 then
      first_failures := Printf.sprintf "%s -> %s" r.line what :: !first_failures
  in
  let roundtrip text =
    send loop c text;
    recv loop c
  in

  (* Setup: LOAD every session, in rounds; setup_s is the median round.
     Re-LOADing a session replaces it, so every round does the same
     parse, digest and engine build.  Half the rounds run before the
     timed phase and half after it, so the median spans the run and not
     one moment of the host. *)
  let load (d : Docs.t) =
    let text = roundtrip (Printf.sprintf "LOAD %s\n%s.\n" d.sid d.text) in
    if not (String.starts_with ~prefix:"OK loaded" text) then
      failwith ("LOAD " ^ d.sid ^ ": " ^ text)
  in
  let setup_round () =
    let (), t0, t1 = timed (fun () -> List.iter load all_docs) in
    t1 -. t0
  in
  let setup_before = Array.init 6 (fun _ -> setup_round ()) in

  (* The route Engine.plan picks for each class, printed so that a
     reroute is visible rather than silent. *)
  let session (d : Docs.t) =
    Option.get (Server.Session.find (Server.Handler.sessions handler) d.sid)
  in
  List.iter
    (fun (d : Docs.t) ->
      let s = session d in
      let q = Cqa.Parse.find_query s.doc (List.hd d.aliases) in
      let p = Cqa.Engine.plan s.engine q in
      if String.ends_with ~suffix:"0" d.sid then
        Printf.printf "route %-9s %-18s verdict=%s facts=%d answers=%d\n"
          (Docs.cls_name d.cls) (Cqa.Engine.route_label p.route)
          (Analysis.Classify.verdict_label p.classification.verdict)
          d.facts (List.length d.expected))
    docs;

  (* A text already verified against the same expectation is accepted
     by string equality, so checking a hit with a large body costs a
     compare, not a sort. *)
  let verified = Hashtbl.create 1024 in
  let check r text =
    incr attempted;
    match Hashtbl.find_opt verified r.line with
    | Some (expect, seen) when expect == r.expect_body && String.equal seen text -> ()
    | _ -> (
        match String.split_on_char '\n' text with
        | l :: _ when String.starts_with ~prefix:"ERR" l -> note_failure r l
        | lines ->
            if matches r lines then Hashtbl.replace verified r.line (r.expect_body, text)
            else note_failure r "wrong answer")
  in
  let run_req r =
    match roundtrip (r.line ^ "\n") with
    | text -> Some text
    | exception Failure msg ->
        incr attempted;
        note_failure r ("transport: " ^ msg);
        None
  in

  (* Warm-up: every key once, untimed — fills the answer cache (cached
     keys) and the engine-side caches (columnar indexes, conflict
     graphs, SAT theories) that resident read-only sessions have. *)
  List.iter (fun r -> Option.iter (check r) (run_req r)) w.warm;
  let warm_failures = !failed in

  (* Per-layer shadow probes for the traced run. *)
  let l = new_layers () in
  let setup_layers =
    if not trace then []
    else
      let parse_s = ref 0. and digest_s = ref 0. and load_s = ref 0. in
      let store = Server.Session.create_store () in
      List.iter
        (fun (d : Docs.t) ->
          let doc, t0, t1 = timed (fun () -> Cqa.Parse.document_of_string d.text) in
          parse_s := !parse_s +. (t1 -. t0);
          let _, t0, t1 = timed (fun () -> Server.Session.digest_of doc) in
          digest_s := !digest_s +. (t1 -. t0);
          let _, t0, t1 = timed (fun () -> Server.Session.load store ~id:d.sid doc) in
          load_s := !load_s +. (t1 -. t0))
        all_docs;
      [
        ("parse.document_ms", !parse_s *. 1e3, "ms");
        ("session.load_ms", !load_s *. 1e3, "ms");
        ("session.digest_ms", !digest_s *. 1e3, "ms");
      ]
  in
  (* Private copies of the written sessions, so the update shadow does
     not touch the server's state. *)
  let shadow_sessions = Hashtbl.create 8 in
  let shadow_session (d : Docs.t) =
    match Hashtbl.find_opt shadow_sessions d.sid with
    | Some s -> s
    | None ->
        let s =
          Server.Session.load (Server.Session.create_store ()) ~id:d.sid
            (Cqa.Parse.document_of_string d.text)
        in
        Hashtbl.replace shadow_sessions d.sid s;
        s
  in
  if trace then
    List.iter
      (fun (d : Docs.t) -> if d.probes <> [] then ignore (shadow_session d))
      all_docs;

  let traced_req r text t0 t1 ~disp ~misses0 ~bytes0 ~c0 ~gc0 =
    let gc1 = Gc.quick_stat () in
    let c1 = counter_values () in
    l.n <- l.n + 1;
    let root = l.next_id + 1 in
    l.next_id <- root;
    l.rtt <- l.rtt +. (t1 -. t0);
    l.dispatch <- l.dispatch +. disp;
    l.bytes_out <- l.bytes_out + (Server.Metrics.bytes_out metrics - bytes0);
    l.minor_words <- l.minor_words +. (gc1.minor_words -. gc0.Gc.minor_words);
    l.major_collections <-
      l.major_collections + (gc1.major_collections - gc0.Gc.major_collections);
    let delta = List.map2 (fun a b -> b - a) c0 c1 in
    List.iter2
      (fun name d ->
        Hashtbl.replace l.deltas name
          (d + Option.value ~default:0 (Hashtbl.find_opt l.deltas name)))
      counter_names delta;
    let sp name (t0, t1) = keep_span l ~id:(l.next_id + 1) ~parent:root name t0 t1 [] in
    sp "round_trip" (t0, t1);
    let _, p0, p1 = timed (fun () -> P.parse r.line) in
    l.parse <- l.parse +. (p1 -. p0);
    sp "protocol.parse" (p0, p1);
    let resp =
      match String.split_on_char '\n' text with
      | head :: body ->
          if String.starts_with ~prefix:"OK " head then
            P.ok ~body (String.sub head 3 (String.length head - 3))
          else P.err head
      | [] -> P.err ""
    in
    let _, q0, q1 = timed (fun () -> P.render (P.clamp resp)) in
    l.render <- l.render +. (q1 -. q0);
    sp "protocol.render" (q0, q1);
    let attributed = ref 0.0 in
    let missed = Server.Metrics.misses metrics > misses0 in
    (match r.kind with
    | Query (d, alias) ->
        l.queries <- l.queries + 1;
        if missed then begin
          l.misses <- l.misses + 1;
          let s = session d in
          let q = Cqa.Parse.find_query s.doc alias in
          let p, a0, a1 = timed (fun () -> Cqa.Engine.plan s.engine q) in
          l.plan <- l.plan +. (a1 -. a0);
          sp "engine.plan" (a0, a1);
          let route = Cqa.Engine.route_label p.route in
          let e = s.engine in
          (* The shadow runs on the engine-side caches the real request
             just filled; where the real request had to build a conflict
             graph or a SAT theory (after an UPDATE), time that build
             too, uncached, so it is billed to the executor. *)
          let rebuild name counter build =
            if List.assoc counter (List.combine counter_names delta) > 0 then begin
              let _, b0, b1 = timed build in
              sp name (b0, b1);
              b1 -. b0
            end
            else 0.0
          in
          let builds =
            rebuild "executor.conflict_graph.build" "conflict_graph.cache_misses" (fun () ->
                ignore (Constraints.Conflict_graph.build e.instance e.schema e.ics))
            +. rebuild "executor.cavsat.theory_build" "cavsat.theory_builds" (fun () ->
                   ignore (Cavsat.Theory.build e.instance e.schema e.ics))
          in
          let rows, e0, e1 =
            timed (fun () -> Cqa.Engine.consistent_answers ~method_:(method_of_route route) e q)
          in
          let exec = e1 -. e0 +. builds in
          l.exec <- l.exec +. exec;
          sp ("executor." ^ route) (e0, e1);
          attributed := a1 -. a0 +. exec;
          let t, k = Option.value ~default:(0., 0) (Hashtbl.find_opt l.exec_by_route route) in
          Hashtbl.replace l.exec_by_route route (t +. exec, k + 1);
          let cls = Docs.cls_name d.cls in
          let tbl =
            match Hashtbl.find_opt l.by_cls cls with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 16 in
                Hashtbl.replace l.by_cls cls t;
                t
          in
          List.iter2
            (fun name dv ->
              Hashtbl.replace tbl name (dv + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
            counter_names delta;
          let m, a = Option.value ~default:(0, 0) (Hashtbl.find_opt l.miss_by_cls cls) in
          Hashtbl.replace l.miss_by_cls cls (m + 1, a + List.length rows)
        end
    | Update (d, op, f) ->
        let s = shadow_session d in
        let _, u0, u1 =
          timed (fun () ->
              Server.Session.apply_update s ~op ~rel:f.rel
                (List.map Relational.Value.int f.args))
        in
        l.updates <- (u1 -. u0) :: l.updates;
        sp "session.apply_update" (u0, u1);
        attributed := u1 -. u0
    | Check d ->
        let e = (session d).engine in
        let _, k0, k1 =
          timed (fun () -> Constraints.Violation.all e.instance e.schema e.ics)
        in
        l.checks <- (k1 -. k0) :: l.checks;
        sp "constraints.violation" (k0, k1);
        attributed := k1 -. k0);
    l.handler_self <- l.handler_self +. (disp -. !attributed);
    keep_span l ~id:root ~parent:0 "request" t0 (now ())
      [ ("line", r.line); ("cache", if missed then "miss" else "hit/none");
        ("dispatch_us", Printf.sprintf "%.1f" (disp *. 1e6)) ]
  in

  (* The timed phase. *)
  Gc.compact ();
  let samples = Hashtbl.create 16 in
  let lru_evictions () =
    Server.Handler.sample_gauges handler;
    Option.value ~default:0.
      (Obs.Registry.gauge_value (Server.Metrics.registry metrics) "cache.evictions")
  in
  let evictions0 = lru_evictions () in
  let hits0 = Server.Metrics.hits metrics and misses0 = Server.Metrics.misses metrics in
  let rtt_plain = ref 0.0 and n_plain = ref 0 in
  let rtt_traced = ref 0.0 and n_traced = ref 0 in
  let t_start = now () in
  let i = ref 0 in
  let rss_at = ref None in
  (try
     while now () -. t_start < seconds do
       let r = w.next () in
       (* Traced runs alternate blocks of 64 plain and 64 traced
          requests, so host drift hits both and their throughput gap
          is the tracing overhead. *)
       let traced_now = trace && !i / 64 mod 2 = 1 in
       if !i = rss_requests then rss_at := Some (peak_rss_mb ());
       incr i;
       let cmd =
         match r.kind with Query _ -> "QUERY" | Update _ -> "UPDATE" | Check _ -> "CHECK"
       in
       let hist = latency_hist handler cmd in
       let before =
         if traced_now then
           Some
             ( Obs.Registry.hist_sum hist, Server.Metrics.misses metrics, Server.Metrics.bytes_out metrics,
               counter_values (), Gc.quick_stat () )
         else None
       in
       let t0 = now () in
       match roundtrip (r.line ^ "\n") with
       | exception Failure msg ->
           incr attempted;
           note_failure r ("transport: " ^ msg);
           raise Exit
       | text ->
           let t1 = now () in
           let rtt = t1 -. t0 in
           (match Hashtbl.find_opt samples r.tag with
           | Some b -> push b (rtt *. 1e3)
           | None -> Hashtbl.replace samples r.tag { a = [| rtt *. 1e3 |]; len = 1 });
           (match before with
           | Some (h0, mi0, b0, c0, gc0) ->
               rtt_traced := !rtt_traced +. rtt;
               incr n_traced;
               traced_req r text t0 t1
                 ~disp:(Obs.Registry.hist_sum hist -. h0)
                 ~misses0:mi0 ~bytes0:b0 ~c0 ~gc0
           | None ->
               rtt_plain := !rtt_plain +. rtt;
               incr n_plain);
           check r text
     done
   with Exit -> ());
  let hits = Server.Metrics.hits metrics - hits0
  and misses = Server.Metrics.misses metrics - misses0 in
  let evictions = lru_evictions () -. evictions0 in
  let peak_rss_mb = match !rss_at with Some v -> v | None -> peak_rss_mb () in
  Gc.compact ();
  let setup_after = Array.init 6 (fun _ -> setup_round ()) in
  let setup_rounds = Array.append setup_before setup_after in
  let setup_s = median setup_rounds in
  ignore (roundtrip "QUIT\n");
  Unix.close c.fd;
  Server.Loop.stop loop;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let calib1 = calib_ms () in

  (* ---- metrics ---- *)
  let tags = Hashtbl.fold (fun t _ acc -> t :: acc) samples [] |> List.sort String.compare in
  let class_ms t =
    match Hashtbl.find_opt samples t with Some b -> Array.sub b.a 0 b.len | None -> [||]
  in
  let all_ms = sorted (Array.concat (List.map class_ms tags)) in
  let n = Array.length all_ms in
  let p50 = pct all_ms 0.5 and p99 = pct all_ms 0.99 in
  let above_p99 = Array.fold_left (fun k v -> if v > p99 then k + 1 else k) 0 all_ms in
  let cls_p50 c =
    let a = class_ms ("query." ^ c) in
    (median a, Array.length a)
  in
  let upd =
    Array.concat
      (List.map class_ms (List.filter (String.starts_with ~prefix:"update.") tags))
  in
  let rtt_total = Array.fold_left ( +. ) 0.0 all_ms /. 1e3 in
  let throughput = float_of_int n /. rtt_total in
  let hit_ratio = ratio (float_of_int hits) (float_of_int (hits + misses)) in

  Printf.printf "workload %s seed %d: %d requests in %.1f s of round trips (%d checked \
                 in warm-up), cache %d entries\n"
    w.name seed n rtt_total (List.length w.warm) w.cache_capacity;
  Printf.printf "closed loop, one client: no request ever waits in a queue\n";
  Printf.printf "host.calib_ms start %.2f end %.2f (fixed pure-OCaml loop)\n" calib0 calib1;
  Printf.printf "setup rounds (s): %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_rounds)));
  Printf.printf "cache hits %d misses %d (hit ratio %.3f), evictions %.0f\n" hits misses
    hit_ratio evictions;
  Printf.printf "peak RSS %.1f MB %s\n" peak_rss_mb
    (if !rss_at = None then "at the end (the run stopped short)"
     else Printf.sprintf "after %d timed requests" rss_requests);

  (* Latency classes: how each percentile sits against the cumulative
     boundaries between classes ordered by their medians.  A percentile
     next to a boundary jumps when the mix moves by a request — but only
     where the classes on either side differ, so neighbours whose
     medians are within 25% of each other count as one class. *)
  let tag_stats =
    List.map
      (fun t ->
        let a = class_ms t in
        (t, median a, Array.length a))
      tags
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b)
  in
  Printf.printf "%-18s %8s %10s %8s\n" "class" "share" "p50_ms" "samples";
  let cum = ref 0.0 and prev = ref nan and boundaries = ref [] in
  List.iter
    (fun (t, m, k) ->
      let share = float_of_int k /. float_of_int n in
      if !prev > 0.0 && m > 1.25 *. !prev then boundaries := !cum :: !boundaries;
      prev := m;
      cum := !cum +. share;
      Printf.printf "%-18s %8.3f %10.3f %8d\n" t share m k)
    tag_stats;
  let clearance q =
    List.fold_left (fun acc b -> Float.min acc (Float.abs (b -. q))) 1.0 !boundaries
  in
  List.iter
    (fun (q, need) ->
      let c = clearance q in
      Printf.printf "boundary clearance p%.0f: %.3f%s\n" (q *. 100.) c
        (if c < need then "  ON A CLASS BOUNDARY" else ""))
    [ (0.5, 0.05); (0.99, 0.005) ];
  Printf.printf "latency p50 %.3f ms, p99 %.3f ms (%d samples, %d above p99)\n" p50 p99 n
    above_p99;

  (* Guards: a workload that does not stress the layer it is meant to
     stress measures the wrong thing. *)
  let guards =
    [
      ("p99 has at least 10 samples above it", above_p99 >= 10);
      ( "cold_routes answer-cache hit ratio <= 0.10",
        w.name <> "cold_routes" || hit_ratio <= 0.10 );
      ("updates were measured", upd <> [||]);
    ]
    @ List.map
        (fun c ->
          (Printf.sprintf "class %s has at least 20 samples" c, snd (cls_p50 c) >= 20))
        (List.map Docs.cls_name Docs.classes)
  in
  List.iter
    (fun (name, ok) -> if not ok then Printf.printf "GUARD FAILED: %s\n" name)
    guards;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !first_failures);
  Printf.printf "errors %d of %d attempted (error_ratio %.4f; %d in warm-up)\n" !failed
    !attempted
    (ratio (float_of_int !failed) (float_of_int !attempted))
    warm_failures;

  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("throughput_rps", throughput, "1/s");
      ("latency_p50_ms", p50, "ms");
      ("latency_p99_ms", p99, "ms");
    ]
    @ List.map
        (fun c -> (Printf.sprintf "query_%s_p50_ms" c, fst (cls_p50 c), "ms"))
        (List.map Docs.cls_name Docs.classes)
    @ [ ("update_p50_ms", median upd, "ms"); ("peak_rss_mb", peak_rss_mb, "MB") ]
  in
  let per_layer () =
    let nf = float_of_int (max 1 l.n) in
    let d name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt l.deltas name)) in
    let cls_d cls name =
      match Hashtbl.find_opt l.by_cls cls with
      | Some t -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt t name))
      | None -> 0.0
    in
    let cls_misses cls =
      float_of_int (fst (Option.value ~default:(0, 0) (Hashtbl.find_opt l.miss_by_cls cls)))
    in
    let cls_rows cls =
      float_of_int (snd (Option.value ~default:(0, 0) (Hashtbl.find_opt l.miss_by_cls cls)))
    in
    let route_ms route =
      match Hashtbl.find_opt l.exec_by_route route with
      | Some (t, k) -> t *. 1e3 /. float_of_int k
      | None -> 0.0
    in
    let per_miss name = ratio (d name) (float_of_int l.misses) in
    let io = l.rtt -. l.parse -. l.dispatch -. l.render in
    let overhead =
      if !n_plain = 0 || !n_traced = 0 then 0.0
      else
        let plain = float_of_int !n_plain /. !rtt_plain
        and traced = float_of_int !n_traced /. !rtt_traced in
        100. *. (plain -. traced) /. plain
    in
    setup_layers
    @ [
        ("protocol.parse_us", l.parse *. 1e6 /. nf, "us");
        ("protocol.render_us", l.render *. 1e6 /. nf, "us");
        ("protocol.bytes_out_per_req", float_of_int l.bytes_out /. nf, "bytes");
        ("loop.io_us", io *. 1e6 /. nf, "us");
        ("handler.self_us", l.handler_self *. 1e6 /. nf, "us");
        ("cache.hit_ratio", hit_ratio, "1");
        ("cache.evictions_per_req", evictions /. float_of_int (max 1 n), "1");
        ("session.update_ms", mean l.updates *. 1e3, "ms");
        ("engine.plan_us", ratio (l.plan *. 1e6) (float_of_int l.misses), "us");
        ( "analysis.classified_per_query",
          ratio (d "analysis.classified") (float_of_int l.queries), "count" );
        ("key_rewrite_ms", route_ms "key_rewriting", "ms");
        ("scan.columnar", per_miss "scan.columnar", "count");
        ("scan.row", per_miss "scan.row", "count");
        ("join.fused", per_miss "join.fused", "count");
        ("datalog_rewrite_ms", route_ms "datalog_rewriting", "ms");
        ( "datalog.seminaive.rounds",
          ratio (cls_d "acyclic" "datalog.seminaive.rounds") (cls_misses "acyclic"), "count" );
        ( "datalog.seminaive.facts",
          ratio (cls_d "acyclic" "datalog.seminaive.facts") (cls_misses "acyclic"), "count" );
        ( "datalog.facts_per_answer",
          ratio (cls_d "acyclic" "datalog.seminaive.facts") (cls_rows "acyclic"), "count" );
        ("cavsat_ms", route_ms "sat_compilation", "ms");
        ("cavsat.sat_calls", ratio (cls_d "conp" "cavsat.sat_calls") (cls_misses "conp"), "count");
        ( "sat.dpll.conflicts",
          ratio (cls_d "conp" "sat.dpll.conflicts") (cls_misses "conp"), "count" );
        ( "cavsat.theory_cache_hit_ratio",
          ratio (d "cavsat.theory_cache_hits")
            (d "cavsat.theory_cache_hits" +. d "cavsat.theory_builds"),
          "1" );
        ("enum_ms", route_ms "repair_enumeration", "ms");
        ( "repairs.candidates",
          ratio
            (cls_d "weakcycle" "repairs.candidates" +. cls_d "selfjoin" "repairs.candidates")
            (cls_misses "weakcycle" +. cls_misses "selfjoin"),
          "count" );
        ( "repairs.found_per_candidate",
          ratio (d "repairs.found") (d "repairs.candidates"), "1" );
        ( "conflict_graph.cache_hit_ratio",
          ratio (d "conflict_graph.cache_hits")
            (d "conflict_graph.cache_hits" +. d "conflict_graph.cache_misses"),
          "1" );
        ("index.builds", d "index.builds" /. nf, "count");
        ("check_ms", mean l.checks *. 1e3, "ms");
        ("gc.minor_words_per_req", l.minor_words /. nf, "words");
        ("gc.major_collections_per_1k_req", float_of_int l.major_collections *. 1000. /. nf, "count");
        ("executor.share_pct", 100. *. ratio l.exec l.rtt, "%");
        ("engine.share_pct", 100. *. ratio (l.exec +. l.plan) l.rtt, "%");
        ("trace.overhead_pct", overhead, "%");
      ]
  in
  let metrics = if trace then per_layer () else e2e in
  Printf.printf "%-34s %14s  %s\n" "metric" "value" "unit";
  List.iter (fun (k, v, u) -> Printf.printf "%-34s %14.4f  %s\n" k v u) metrics;
  if trace then begin
    let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" w.name seed) in
    let oc = open_out path in
    output_string oc (Obs.Export.chrome (List.rev l.spans));
    close_out oc;
    Printf.printf "traced %d of %d requests; Chrome trace_event file %s (%d spans)\n" l.n n
      path l.nspans
  end;
  let correct = !failed = 0 && List.for_all snd guards in
  let num v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (num v) u)
          metrics))
