(* JSONL event sink.  The JSON is hand-rolled through Export's string
   helpers, like every other exporter in lib/obs. *)

type value = Str of string | Int of int | Float of float | Bool of bool | Raw of string

type sink = {
  write : string -> unit;
  on_close : unit -> unit;
  clock : unit -> float;
  wall : unit -> float;
  t0 : float;
  mutable last : float; (* clamp: timestamps never decrease *)
  mutable emitted : int;
  mutable closed : bool;
}

let make ?(clock = Unix.gettimeofday) ?wall ?(close = fun () -> ()) write =
  let t0 = clock () in
  let wall = match wall with Some w -> w | None -> clock in
  {
    write;
    on_close = close;
    clock;
    wall;
    t0;
    last = t0;
    emitted = 0;
    closed = false;
  }

let open_file ?clock path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  make ?clock
    ~close:(fun () -> close_out_noerr oc)
    (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc)

let stderr_sink ?clock () =
  make ?clock (fun line ->
      output_string stderr line;
      output_char stderr '\n';
      flush stderr)

let null = make ~clock:(fun () -> 0.0) (fun _ -> ())

let render_value = function
  | Str s -> Export.json_string s
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f
      else Export.json_string (string_of_float f)
  | Bool b -> string_of_bool b
  | Raw json -> json

let now sink =
  let t = sink.clock () in
  let t = if t > sink.last then t else sink.last in
  sink.last <- t;
  t

let emit sink ?req ?(fields = []) ev =
  if not sink.closed then begin
    let ts_us = int_of_float ((now sink -. sink.t0) *. 1e6) in
    let parts =
      Printf.sprintf "\"ev\":%s" (Export.json_string ev)
      :: Printf.sprintf "\"ts_us\":%d" ts_us
      :: (match req with
         | Some id -> [ Printf.sprintf "\"req\":%d" id ]
         | None -> [])
      @ List.map
          (fun (k, v) ->
            Printf.sprintf "%s:%s" (Export.json_string k) (render_value v))
          fields
    in
    let line = "{" ^ String.concat "," parts ^ "}" in
    (try sink.write line with _ -> ());
    sink.emitted <- sink.emitted + 1
  end

let anchor ?label sink =
  (* Integer milliseconds: the Float renderer's %.6g would truncate an
     epoch timestamp to ~1000 s resolution. *)
  let wall_ms = int_of_float (Float.round (sink.wall () *. 1e3)) in
  let fields =
    ("wall_ms", Int wall_ms)
    :: (match label with Some l -> [ ("label", Str l) ] | None -> [])
  in
  emit sink ~fields "anchor"

let emitted sink = sink.emitted

let close sink =
  if not sink.closed then begin
    sink.closed <- true;
    try sink.on_close () with _ -> ()
  end
