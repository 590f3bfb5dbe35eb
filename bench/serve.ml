(* Serving benchmark: replay a generated query/update mix against an
   in-process cqa server and report throughput and cache hit rate.

     dune exec bench/serve.exe                 # 1200 requests
     dune exec bench/serve.exe -- 5000         # choose the request count

   The server runs in this very process: the benchmark interleaves
   Server.Loop.step with non-blocking client reads/writes on a connected
   Unix-domain socket, so the numbers include the full protocol path
   (parse, dispatch, render, socket I/O) without scheduler noise. *)

module Value = Relational.Value
module Instance = Relational.Instance

(* ---- client plumbing ------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable lines : string list; (* complete lines, oldest first *)
}

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; inbuf = Buffer.create 4096; lines = [] }

let send loop c text =
  let pos = ref 0 in
  while !pos < String.length text do
    match Unix.write_substring c.fd text !pos (String.length text - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        ignore (Server.Loop.step ~timeout:0.01 loop)
  done

let pump_lines c =
  let s = Buffer.contents c.inbuf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | None ->
        Buffer.clear c.inbuf;
        Buffer.add_substring c.inbuf s start (String.length s - start);
        c.lines <- c.lines @ List.rev acc
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
  in
  go 0 []

(* Read one full response (status line .. "."), stepping the server. *)
let recv loop c =
  let bytes = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec take acc = function
    | "." :: rest ->
        c.lines <- rest;
        List.rev acc
    | line :: rest -> take (line :: acc) rest
    | [] ->
        if Unix.gettimeofday () > deadline then
          failwith "bench: no response within 30s";
        ignore (Server.Loop.step ~timeout:0.01 loop);
        (match Unix.read c.fd bytes 0 (Bytes.length bytes) with
        | 0 -> failwith "bench: server closed the connection"
        | n ->
            Buffer.add_subbytes c.inbuf bytes 0 n;
            pump_lines c
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            ());
        take acc c.lines
  in
  let lines = take [] c.lines in
  (match lines with
  | status :: _ when String.length status >= 3 && String.sub status 0 3 = "ERR"
    ->
      failwith ("bench: unexpected " ^ status)
  | [] -> failwith "bench: empty response"
  | _ -> ());
  lines

let request loop c line =
  send loop c (line ^ "\n");
  recv loop c

(* ---- the workload ---------------------------------------------------- *)

let doc_text db =
  let b = Buffer.create 4096 in
  Buffer.add_string b "relation T(k, v)\n";
  List.iter
    (fun row ->
      Buffer.add_string b
        (Printf.sprintf "row T(%s, %s)\n"
           (Value.to_string row.(0))
           (Value.to_string row.(1))))
    (Instance.rows db ~rel:"T");
  Buffer.add_string b "key T(k)\n";
  Buffer.add_string b "query q(X) :- T(X, Y)\n";
  Buffer.add_string b "query full(X, Y) :- T(X, Y)\n";
  Buffer.contents b

(* One full replay: fresh socket, loop, sessions and request mix (the
   RNG is re-seeded per pass, so every pass sees the same stream).
   Returns the loop (for workload readback), the still-open client, the
   wall time of the request phase, the STATS body and the counters
   before it. *)
let run_pass ~tag ~requests ?metrics_fd ?stats ?sampler ?(progress = true) () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cqa-serve-bench-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let loop =
    Server.Loop.create ~cache_capacity:256 ?metrics_fd ?stats ?sampler
      ~progress
      (Server.Loop.listen_unix sock)
  in
  Server.Handler.sample_gauges (Server.Loop.handler loop);
  let c = connect sock in
  ignore (Server.Loop.step ~timeout:0.01 loop) (* accept *);

  (* Four resident sessions over two instance shapes. *)
  let sessions = [ "s1"; "s2"; "s3"; "s4" ] in
  List.iteri
    (fun i sid ->
      let db, _ =
        Workload.Gen.key_conflict_instance ~seed:(42 + i) ~n:40
          ~conflict_fraction:0.2 ()
      in
      let _ = request loop c (Printf.sprintf "LOAD %s\n%s." sid (doc_text db)) in
      ())
    sessions;

  let rng = Random.State.make [| 7 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fresh = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to requests do
    let sid = pick sessions in
    let r = Random.State.int rng 100 in
    let line =
      if r < 55 then Printf.sprintf "QUERY %s q" sid
      else if r < 70 then Printf.sprintf "QUERY %s full" sid
      else if r < 80 then Printf.sprintf "CHECK %s" sid
      else if r < 88 then Printf.sprintf "MEASURE %s" sid
      else if r < 95 then Printf.sprintf "REPAIRS %s s" sid
      else begin
        incr fresh;
        Printf.sprintf "UPDATE %s add T(%d, %d)" sid (5000 + !fresh) !fresh
      end
    in
    ignore (request loop c line)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* The counters as the replay left them, before STATS: its reply
     prints latency figures whose length varies from run to run, and
     counting its bytes would make [bytes_out] vary with them. *)
  let counters =
    Obs.Registry.counters_list
      (Server.Metrics.registry
         (Server.Handler.metrics (Server.Loop.handler loop)))
  in
  let stats_body = request loop c "STATS" in
  (loop, c, elapsed, stats_body, counters, sock)

let finish_pass (loop, c, _, _, _, sock) =
  ignore (request loop c "QUIT");
  Unix.close c.fd;
  Unix.unlink sock

let () =
  let requests, metrics_port =
    match Sys.argv with
    | [| _ |] -> (1200, None)
    | [| _; n |] -> (int_of_string n, None)
    | [| _; n; p |] -> (int_of_string n, Some (int_of_string p))
    | _ ->
        prerr_endline "usage: serve.exe [REQUESTS [METRICS_PORT]]";
        exit 2
  in
  (* With a metrics port the replay doubles as a live scrape target:
     curl 127.0.0.1:PORT/metrics while the benchmark steps the loop. *)
  let metrics_fd =
    Option.map
      (fun p ->
        let fd, actual = Server.Loop.listen_tcp ~port:p () in
        Printf.printf "metrics at http://127.0.0.1:%d/metrics\n%!" actual;
        fd)
      metrics_port
  in

  (* Warm the code paths and level the heap before timing: without
     this the second measured pass starts on the first one's grown
     heap, which is pure noise in the recorded ratio. *)
  finish_pass (run_pass ~tag:"warmup" ~requests:(min 300 requests) ());
  Gc.compact ();

  (* Pass 1 — workload introspection off: the baseline the committed
     BENCH_serve.json row and counters come from. *)
  let ((_, _, elapsed, stats, counters, _) as pass1) =
    run_pass ~tag:"plain" ~requests ?metrics_fd ()
  in
  let metric name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> Some v
        | _ -> None)
      stats
    |> Option.value ~default:"?"
  in
  Printf.printf "requests        %d (+5 LOAD/STATS)\n" requests;
  Printf.printf "elapsed         %.3f s\n" elapsed;
  Printf.printf "throughput      %.0f req/s\n" (float_of_int requests /. elapsed);
  Printf.printf "cache hits      %s\n" (metric "cache_hits");
  Printf.printf "cache misses    %s\n" (metric "cache_misses");
  Printf.printf "cache hit rate  %s\n" (metric "cache_hit_rate");
  Printf.printf "cache entries   %s\n" (metric "cache_entries");
  Printf.printf "bytes in/out    %s / %s\n" (metric "bytes_in")
    (metric "bytes_out");
  List.iter
    (fun l ->
      if String.length l >= 8 && String.sub l 0 8 = "latency_" then
        print_endline l)
    stats;
  (* Machine-readable results: request mix outcome plus every counter of
     the server's obs registry (request scalars and solver effort). *)
  let jnum s =
    (* STATS values are numeric; keep the JSON valid if one is missing. *)
    match float_of_string_opt s with Some _ -> s | None -> Bench_json.str s
  in
  Bench_json.record ~bench:"serve"
    [
      ("requests", Bench_json.int requests);
      ("elapsed_s", Bench_json.num elapsed);
      ("throughput_rps", Bench_json.num (float_of_int requests /. elapsed));
      ("cache_hits", jnum (metric "cache_hits"));
      ("cache_misses", jnum (metric "cache_misses"));
      ("cache_hit_rate", jnum (metric "cache_hit_rate"));
      ("bytes_in", jnum (metric "bytes_in"));
      ("bytes_out", jnum (metric "bytes_out"));
    ];

  (* Pass 2 — the same replay with workload stats + tail sampling armed,
     to price the introspection layer and exercise WORKLOAD end to end.
     Its throughput is recorded as its own row (and as a ratio against
     pass 1), never as the baseline. *)
  let wstats = Obs.Stats.create ~capacity:256 () in
  let wsampler =
    Obs.Sampler.create ~capacity:64 ~threshold_s:0.050 ~sample_every:101 ()
  in
  Gc.compact ();
  let ((loop2, c2, elapsed2, _, _, _) as pass2) =
    run_pass ~tag:"workload" ~requests ~stats:wstats ~sampler:wsampler ()
  in
  (* The recorded ratio compares back-to-back pairs, not global minima:
     single ~0.1 s passes jitter by 10%+ on a shared box, and slow
     drift (heap warmth, neighbours) moves both members of an adjacent
     pair together, so per-pair ratios are far more stable than any
     min-of-N across the whole run.  Eight throwaway pairs run in
     alternating order (armed/plain, plain/armed, ...) to cancel
     position bias, and the median of their per-pair ratios is what
     lands in BENCH_serve.json; pass 1 and pass 2 stay out of the
     ratio — pass 1 sits right after warmup and both carry readback
     duties, which biases them.  The repeat armed passes use throwaway
     stores — the dump reflects exactly one replay.  CQA_SERVE_AA=1
     turns the armed passes plain, an A/A self-check of the harness:
     the printed ratio should then hover around 1.0. *)
  let aa_check = Sys.getenv_opt "CQA_SERVE_AA" <> None in
  let armed_pass tag =
    Gc.compact ();
    let ((_, _, e, _, _, _) as p) =
      (if aa_check then run_pass ~tag ~requests ()
       else
         run_pass ~tag ~requests
           ~stats:(Obs.Stats.create ~capacity:256 ())
           ~sampler:
             (Obs.Sampler.create ~capacity:64 ~threshold_s:0.050
                ~sample_every:101 ())
           ())
    in
    finish_pass p;
    e
  in
  let plain_pass tag =
    Gc.compact ();
    let ((_, _, e, _, _, _) as p) = run_pass ~tag ~requests () in
    finish_pass p;
    e
  in
  let ratios = ref [] in
  let best2 = ref elapsed2 in
  for i = 1 to 8 do
    let tag suffix = Printf.sprintf "%s-%d" suffix i in
    let p, a =
      if i mod 2 = 1 then begin
        let a = armed_pass (tag "workload") in
        (plain_pass (tag "plain"), a)
      end
      else begin
        let p = plain_pass (tag "plain") in
        (p, armed_pass (tag "workload"))
      end
    in
    best2 := Float.min !best2 a;
    ratios := (p /. a) :: !ratios
  done;
  let elapsed2 = !best2 in
  let ratio =
    (* Median of the eight pair ratios (mean of the middle two). *)
    let l = List.sort Float.compare !ratios in
    let n = List.length l in
    (List.nth l ((n - 1) / 2) +. List.nth l (n / 2)) /. 2.0
  in
  Printf.printf "workload pass   %.3f s (%.0f req/s, ratio %.3f)\n" elapsed2
    (float_of_int requests /. elapsed2)
    ratio;
  let top = request loop2 c2 "WORKLOAD TOP 5" in
  List.iter print_endline top;
  List.iter print_endline (request loop2 c2 "WORKLOAD BY branch");
  (* The workload dump, same shape as `cqa_server --workload-dump`, for
     `cqa report` and the CI JSON check. *)
  let oc = open_out "BENCH_workload.json" in
  Printf.fprintf oc "{\"workload\":%s,\"sampler\":%s}\n"
    (Obs.Stats.to_json wstats)
    (Obs.Sampler.summary_json wsampler);
  close_out oc;
  Printf.printf "workload stats  %d fingerprints, %d recorded, %.1f%% attributed\n"
    (Obs.Stats.length wstats) (Obs.Stats.recorded wstats)
    (if Obs.Stats.total_wall_s wstats > 0.0 then
       100.0 *. Obs.Stats.attributed_s wstats /. Obs.Stats.total_wall_s wstats
     else 100.0);
  Bench_json.record ~bench:"serve_workload"
    [
      ("requests", Bench_json.int requests);
      ("elapsed_s", Bench_json.num elapsed2);
      ("throughput_rps", Bench_json.num (float_of_int requests /. elapsed2));
      ("workload_ratio", Bench_json.num ratio);
      ("fingerprints", Bench_json.int (Obs.Stats.length wstats));
      ("tail_kept", Bench_json.int (Obs.Sampler.kept wsampler));
    ];

  (* The progress-armed vs plain dual pass: same pairing methodology as
     the workload ratio above, but the armed side is exactly the
     production default (an Obs.Progress context per session-touching
     request — heartbeats, INFLIGHT registration, flight recorder) and
     the plain side turns it off.  The overhead budget is a hard gate:
     the in-flight machinery must stay under 5% or the bench fails.
     Single pair ratios spread over 0.98-1.03 between quartiles, with
     tails past 0.8 and 1.2, on a 2-core host: the median of 8 pairs
     then read 1.05 on unchanged code now and again, so the gate takes
     the median of 32 pairs (ten runs: 0.99-1.03), which still reads
     1.09-1.17 with ~10% added to every armed request. *)
  let progress_pairs = 32 in
  let progress_ratios = ref [] in
  let timed_pass ~progress tag =
    Gc.compact ();
    let ((_, _, e, _, _, _) as p) =
      run_pass ~tag ~requests ~progress:(progress && not aa_check) ()
    in
    finish_pass p;
    e
  in
  for i = 1 to progress_pairs do
    let tag suffix = Printf.sprintf "progress-%s-%d" suffix i in
    let p, a =
      if i mod 2 = 1 then begin
        let a = timed_pass ~progress:true (tag "armed") in
        (timed_pass ~progress:false (tag "plain"), a)
      end
      else begin
        let p = timed_pass ~progress:false (tag "plain") in
        (p, timed_pass ~progress:true (tag "armed"))
      end
    in
    progress_ratios := (a /. p) :: !progress_ratios
  done;
  let progress_ratio =
    let l = List.sort Float.compare !progress_ratios in
    let n = List.length l in
    (List.nth l ((n - 1) / 2) +. List.nth l (n / 2)) /. 2.0
  in
  Printf.printf "progress ratio  %.3f (armed/plain, median of %d pairs)\n"
    progress_ratio progress_pairs;
  Bench_json.record ~bench:"serve_progress"
    [
      ("requests", Bench_json.int requests);
      ("progress_ratio", Bench_json.num progress_ratio);
    ];

  Bench_json.write ~counters "BENCH_serve.json";
  finish_pass pass2;
  finish_pass pass1;
  if progress_ratio > 1.05 then begin
    Printf.eprintf
      "FAIL: progress-armed serving is %.1f%% over the plain pass (budget \
       5%%)\n"
      ((progress_ratio -. 1.0) *. 100.0);
    exit 1
  end;
  if float_of_string (metric "cache_hit_rate") <= 0.0 then begin
    prerr_endline "FAIL: expected a non-zero cache hit rate";
    exit 1
  end;
  if Obs.Stats.length wstats = 0 then begin
    prerr_endline "FAIL: workload pass recorded no fingerprints";
    exit 1
  end
