type counter = int ref

type metric =
  | M_counter of counter
  | M_probe of (unit -> float)
  | M_hist of Hdr.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let flavour = function
  | M_counter _ -> "counter"
  | M_probe _ -> "gauge"
  | M_hist _ -> "histogram"

let wrong_flavour name ~want m =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (flavour m) want)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_counter c) -> c
  | Some m -> wrong_flavour name ~want:"counter" m
  | None ->
    let c = ref 0 in
    Hashtbl.add t.tbl name (M_counter c);
    c

let bump c = incr c
let counter_value c = !c

let gauge_probe t name f =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_probe _) | None -> Hashtbl.replace t.tbl name (M_probe f)
  | Some m -> wrong_flavour name ~want:"gauge" m

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_hist h) -> h
  | Some m -> wrong_flavour name ~want:"histogram" m
  | None ->
    let h = Hdr.create () in
    Hashtbl.add t.tbl name (M_hist h);
    h

type value =
  | Counter of int
  | Gauge of float
  | Summary of {
      count : int;
      total : float;
      mean : float;
      p50 : float;
      p90 : float;
      p99 : float;
      p999 : float;
      vmin : float;
      vmax : float;
    }

let value_of = function
  | M_counter c -> Counter !c
  | M_probe f -> Gauge (f ())
  | M_hist h ->
    let n = Hdr.count h in
    if n = 0 then
      Summary
        { count = 0; total = 0.0; mean = 0.0; p50 = 0.0; p90 = 0.0;
          p99 = 0.0; p999 = 0.0; vmin = 0.0; vmax = 0.0 }
    else
      Summary
        {
          count = n;
          total = Hdr.total h;
          mean = Hdr.mean h;
          p50 = Hdr.percentile h 50.0;
          p90 = Hdr.percentile h 90.0;
          p99 = Hdr.percentile h 99.0;
          p999 = Hdr.percentile h 99.9;
          vmin = Hdr.min h;
          vmax = Hdr.max h;
        }

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name = Option.map value_of (Hashtbl.find_opt t.tbl name)

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge v -> Format.fprintf fmt "%g" v
  | Summary s ->
    Format.fprintf fmt
      "n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f min=%.3f max=%.3f"
      s.count s.mean s.p50 s.p90 s.p99 s.p999 s.vmin s.vmax

let pp_text fmt t =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-40s %a@." name pp_value v)
    (snapshot t)

let json_float v =
  (* [%g] alone can print "inf"/"nan", which is not JSON. *)
  if Float.is_nan v then "null"
  else if v = infinity then "1e308"
  else if v = neg_infinity then "-1e308"
  else Printf.sprintf "%.17g" v

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_char b '[';
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      let name = Trace.json_escape name in
      (match v with
      | Counter n ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"type\":\"counter\",\"value\":%d}"
             name n)
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"type\":\"gauge\",\"value\":%s}"
             name (json_float g))
      | Summary s ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"total\":%s,\
              \"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"p999\":%s,\
              \"min\":%s,\"max\":%s}"
             name s.count (json_float s.total) (json_float s.mean)
             (json_float s.p50) (json_float s.p90) (json_float s.p99)
             (json_float s.p999) (json_float s.vmin) (json_float s.vmax))))
    (snapshot t);
  Buffer.add_char b ']';
  Buffer.contents b
