(* Chrome trace-event JSON export.

   Builds a trace file loadable by Perfetto (ui.perfetto.dev) or
   chrome://tracing from the simulator's observability sources:

   - [add_trace]      — the engine's [Trace.t] ring: labeled jobs become
                        B/E duration slices, instants become 'i' events;
   - [add_timeline]   — a [Timeline.t]: per-(entity, category) CPU usage
                        as counter ('C') tracks, in cores;
   - [add_provenance] — a packet's [Provenance.t]: one slice per hop,
                        with queue/service attribution in the args.

   Each simulated entity (a deployment mode, a testbed, a probe) maps to
   one trace "process"; tracks within it are threads/counters.  Sim time
   is nanoseconds; the trace-event [ts] field is microseconds, emitted
   with 3 decimals so nothing is rounded away. *)

type t = {
  buf : Buffer.t;
  mutable next_pid : int;
  mutable n_events : int;
}

let create () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  { buf; next_pid = 0; n_events = 0 }

let ts_us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1000.)

let raw t json =
  if t.n_events > 0 then Buffer.add_char t.buf ',';
  t.n_events <- t.n_events + 1;
  Buffer.add_string t.buf json

(* Every event lands on its process's thread 0: one track per process. *)
let event t ~ph ~pid ~ts ~cat ~name args =
  raw t
    (Printf.sprintf
       "{\"ph\":\"%s\",\"pid\":%d,\"tid\":0,\"ts\":%s,\"cat\":\"%s\",\"name\":\"%s\"%s}"
       ph pid (ts_us ts) (Trace.json_escape cat) (Trace.json_escape name)
       args)

let args_of_pairs = function
  | [] -> ""
  | pairs ->
    let body =
      List.map
        (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Trace.json_escape k) v)
        pairs
      |> String.concat ","
    in
    Printf.sprintf ",\"args\":{%s}" body

(* Allocate a trace process and name it via a metadata event. *)
let process t ~name =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  raw t
    (Printf.sprintf
       "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
       pid (Trace.json_escape name));
  pid

let span t ~pid ~cat ~name ~start_ns ~end_ns args =
  event t ~ph:"B" ~pid ~ts:start_ns ~cat ~name (args_of_pairs args);
  event t ~ph:"E" ~pid ~ts:end_ns ~cat ~name ""

let instant t ~pid ~cat ~name ~ts args =
  event t ~ph:"i" ~pid ~ts ~cat ~name
    (match args_of_pairs args with
    | "" -> ",\"s\":\"t\""
    | a -> a ^ ",\"s\":\"t\"")

let counter t ~pid ~name ~ts pairs =
  event t ~ph:"C" ~pid ~ts ~cat:"counter" ~name (args_of_pairs pairs)

(* Engine trace ring → slices and instants.  The ring stores matched
   B/E pairs for labeled jobs (Engine.exec), so a straight replay
   produces well-nested slices per track. *)
let add_trace t ~pid trace =
  Trace.iter trace (fun (e : Trace.event) ->
      let args =
        if e.Trace.arg = "" then []
        else [ ("arg", "\"" ^ Trace.json_escape e.Trace.arg ^ "\"") ]
      in
      match e.Trace.kind with
      | Trace.Span_begin ->
        event t ~ph:"B" ~pid ~ts:e.Trace.ts ~cat:e.Trace.cat
          ~name:e.Trace.name (args_of_pairs args)
      | Trace.Span_end ->
        event t ~ph:"E" ~pid ~ts:e.Trace.ts ~cat:e.Trace.cat
          ~name:e.Trace.name ""
      | Trace.Instant ->
        instant t ~pid ~cat:e.Trace.cat ~name:e.Trace.name ~ts:e.Trace.ts
          args)

(* Timeline → one counter track per entity, one series per CPU category,
   in cores (busy-ns delta over the sampling period). *)
let add_timeline t ~pid tl =
  let period = float_of_int (Timeline.period tl) in
  List.iter
    (fun entity ->
      let prev = Array.make 5 0 in
      List.iter
        (fun (tk : Timeline.tick) ->
          let cats =
            Option.value
              (List.assoc_opt entity tk.Timeline.snap)
              ~default:(List.map (fun c -> (c, 0)) Cpu_account.all_categories)
          in
          let pairs =
            List.map
              (fun (c, total) ->
                let i = Cpu_account.category_index c in
                let delta = total - prev.(i) in
                prev.(i) <- total;
                ( Cpu_account.category_to_string c,
                  Printf.sprintf "%.4f" (float_of_int delta /. period) ))
              cats
          in
          counter t ~pid ~name:("cpu." ^ entity) ~ts:tk.Timeline.tick_ts pairs)
        (Timeline.ticks tl))
    (Timeline.entities tl)

(* Provenance record → one slice per hop with queue/service attribution. *)
let add_provenance t ~pid entries =
  List.iter
    (fun (e : Provenance.entry) ->
      span t ~pid ~cat:"hop" ~name:e.Provenance.hop
        ~start_ns:e.Provenance.enqueue_ns ~end_ns:e.Provenance.end_ns
        [
          ("queue_ns", string_of_int (Provenance.queue_ns e));
          ("service_ns", string_of_int (Provenance.service_ns e));
        ])
    entries

let event_count t = t.n_events

let to_string t = Buffer.contents t.buf ^ "]}"

let to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
