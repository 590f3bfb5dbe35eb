(* Prometheus text exposition (version 0.0.4).  Kept dependency-free
   like the rest of lib/obs: the format is all string concatenation,
   and the only subtlety is that registry histograms store per-bucket
   counts while Prometheus wants cumulative ones. *)

let is_name_char extra c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || extra c

let mangle ~allow_colon s =
  if s = "" then "_"
  else begin
    let b = Buffer.create (String.length s + 1) in
    (match s.[0] with '0' .. '9' -> Buffer.add_char b '_' | _ -> ());
    String.iter
      (fun c ->
        if is_name_char (fun c -> allow_colon && c = ':') c then
          Buffer.add_char b c
        else Buffer.add_char b '_')
      s;
    Buffer.contents b
  end

let mangle_name = mangle ~allow_colon:true

let mangle_label_name s =
  let m = mangle ~allow_colon:false s in
  (* "__"-prefixed label names are reserved for Prometheus internals. *)
  if String.length m >= 2 && m.[0] = '_' && m.[1] = '_' then "x" ^ m else m

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape_label_value s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | '"' -> Buffer.add_char b '"'
       | 'n' -> Buffer.add_char b '\n'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
       i := !i + 2
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

let number x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" x

let sample ?(labels = []) name value =
  let name = mangle_name name in
  match labels with
  | [] -> Printf.sprintf "%s %s" name value
  | _ ->
      let ls =
        List.map
          (fun (k, v) ->
            Printf.sprintf "%s=\"%s\"" (mangle_label_name k)
              (escape_label_value v))
          labels
      in
      Printf.sprintf "%s{%s} %s" name (String.concat "," ls) value

(* One family: the TYPE header plus its samples. *)
let family buf name kind samples =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" (mangle_name name) kind);
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    samples

let histogram_samples ~labels name h =
  let bucket le n =
    sample ~labels:(labels @ [ ("le", le) ]) (name ^ "_bucket") (string_of_int n)
  in
  let counts = Registry.hist_raw_buckets h in
  let cum = ref 0 in
  List.mapi
    (fun i bound ->
      cum := !cum + counts.(i);
      bucket (number bound) !cum)
    (Array.to_list (Registry.hist_bounds h))
  @ [
      bucket "+Inf" (Registry.hist_count h);
      sample ~labels (name ^ "_sum") (number (Registry.hist_sum h));
      sample ~labels (name ^ "_count") (string_of_int (Registry.hist_count h));
    ]

let render ?(namespace = "cqa_") registry =
  let named kind = List.map (fun (n, v) -> (namespace ^ n, kind, v)) in
  let families =
    List.concat
      [
        named `Counter
          (List.map
             (fun (n, v) -> (n, `Int v))
             (Registry.counters_list registry));
        named `Gauge
          (List.map
             (fun (n, v) -> (n, `Float v))
             (Registry.gauges_list registry));
        named `Histogram
          (List.map
             (fun (n, h) -> (n, `Hist h))
             (Registry.histograms_list registry));
      ]
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, kind, value) ->
      match (kind, value) with
      | `Counter, `Int v -> family buf name "counter" [ sample name (string_of_int v) ]
      | `Gauge, `Float v -> family buf name "gauge" [ sample name (number v) ]
      | `Histogram, `Hist h -> family buf name "histogram" (histogram_samples ~labels:[] name h)
      | _ -> ())
    families;
  Buffer.contents buf
