(* Latency provenance, CPU timelines and the Chrome-trace exporter.

   Three layers of assertion:
   1. unit — Provenance record arithmetic, branching, Trace.iter,
      Timeline sampling, contains_seq edge cases;
   2. honesty — a timed probe through each deployment mode must
      reconcile: per-hop queue+service sums to the datagram's measured
      one-way latency (within 1 ns per hop), every serviced hop feeds
      its metrics histograms, and with provenance off the hot path
      allocates exactly what the untimed path does;
   3. export — the emitted trace JSON round-trips through a (hand
      written, dependency-free) JSON parser with the right shapes. *)

open Nest_net
open Nestfusion
module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Trace = Nest_sim.Trace
module Metrics = Nest_sim.Metrics
module Cpu_account = Nest_sim.Cpu_account
module Timeline = Nest_sim.Timeline
module Trace_export = Nest_sim.Trace_export
module Exec = Nest_sim.Exec
module P = Nest_sim.Provenance

(* --- Provenance records --- *)

let test_record_arithmetic () =
  let p = P.create () in
  Alcotest.(check bool) "fresh record empty" true (P.is_empty p);
  P.add p ~hop:"a" ~enqueue_ns:10 ~start_ns:15 ~end_ns:40;
  P.add p ~hop:"b" ~enqueue_ns:40 ~start_ns:40 ~end_ns:70;
  P.mark_after p ~hop:"nat:rewrite";
  Alcotest.(check int) "length" 3 (P.length p);
  Alcotest.(check (list string))
    "hops oldest first" [ "a"; "b"; "nat:rewrite" ] (P.hops p);
  (match P.entries p with
  | [ a; b; m ] ->
    Alcotest.(check int) "a queued" 5 (P.queue_ns a);
    Alcotest.(check int) "a serviced" 25 (P.service_ns a);
    Alcotest.(check int) "b queued" 0 (P.queue_ns b);
    Alcotest.(check int) "b serviced" 30 (P.service_ns b);
    (* The marker is pinned to b's completion and spans nothing. *)
    Alcotest.(check int) "marker date" 70 m.P.enqueue_ns;
    Alcotest.(check int) "marker queue" 0 (P.queue_ns m);
    Alcotest.(check int) "marker service" 0 (P.service_ns m)
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es));
  Alcotest.(check int) "attributed" 60 (P.attributed_ns p);
  Alcotest.(check int) "total = first enqueue to last end" 60 (P.total_ns p);
  Alcotest.(check int) "contiguous path has no gap" 0 (P.gap_ns p)

let test_gap () =
  let p = P.create () in
  P.add p ~hop:"a" ~enqueue_ns:0 ~start_ns:0 ~end_ns:10;
  (* 7 ns elapse between a's completion and b's hand-off that no hop
     claims: the record must expose them, not hide them. *)
  P.add p ~hop:"b" ~enqueue_ns:17 ~start_ns:20 ~end_ns:25;
  Alcotest.(check int) "attributed" 18 (P.attributed_ns p);
  Alcotest.(check int) "total" 25 (P.total_ns p);
  Alcotest.(check int) "gap" 7 (P.gap_ns p)

let test_branch () =
  let p = P.create () in
  P.add p ~hop:"shared" ~enqueue_ns:0 ~start_ns:0 ~end_ns:5;
  let q = P.branch p in
  P.add p ~hop:"left" ~enqueue_ns:5 ~start_ns:5 ~end_ns:9;
  P.add q ~hop:"right" ~enqueue_ns:5 ~start_ns:6 ~end_ns:7;
  Alcotest.(check (list string))
    "trunk keeps its own suffix" [ "shared"; "left" ] (P.hops p);
  Alcotest.(check (list string))
    "branch shares only the prefix" [ "shared"; "right" ] (P.hops q)

(* --- Trace.iter --- *)

let test_trace_iter () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.instant tr ~ts:i ~cat:"t" ~name:(string_of_int i) ()
  done;
  let seen = ref [] in
  Trace.iter tr (fun e -> seen := e.Trace.name :: !seen);
  Alcotest.(check (list string))
    "iter agrees with events after wrap-around"
    (List.map (fun e -> e.Trace.name) (Trace.events tr))
    (List.rev !seen)

(* --- contains_seq --- *)

let test_contains_seq () =
  let check name exp hops expected =
    Alcotest.(check bool) name exp (Helpers.contains_seq hops expected)
  in
  check "empty expected in empty hops" true [] [];
  check "empty expected in any hops" true [ "a"; "b" ] [];
  check "anything in empty hops" false [] [ "a" ];
  check "exact match" true [ "a"; "b"; "c" ] [ "a"; "b"; "c" ];
  check "subsequence with gaps" true [ "a"; "x"; "b"; "y"; "c" ]
    [ "a"; "b"; "c" ];
  check "order matters" false [ "b"; "a" ] [ "a"; "b" ];
  check "longer than hops" false [ "a" ] [ "a"; "a" ];
  (* Repeated names must be matched against distinct occurrences. *)
  check "repeats need repeats" true [ "a"; "b"; "a" ] [ "a"; "a" ];
  check "single occurrence can't count twice" false [ "a"; "b" ] [ "a"; "a" ]

(* --- Timeline sampling --- *)

let test_timeline_sampling () =
  let e = Engine.create () in
  let acct = Cpu_account.create () in
  Alcotest.(check bool) "period must be positive" true
    (try
       ignore (Timeline.create ~period:0 e acct);
       false
     with Invalid_argument _ -> true);
  let tl = Timeline.create ~period:(Time.us 10) e acct in
  Timeline.start tl;
  Timeline.start tl (* idempotent: must not double the cadence *);
  let vm1 = Cpu_account.handle acct ~entity:"vm1" in
  Engine.schedule e ~delay:(Time.us 25) (fun () ->
      Cpu_account.charge_handle vm1 Cpu_account.Soft (Time.us 3));
  Engine.schedule e ~delay:(Time.us 55) (fun () ->
      Cpu_account.charge_handle vm1 Cpu_account.Soft (Time.us 2));
  Engine.run ~until:(Time.us 100) e;
  Timeline.stop tl;
  (* Ticks at 0,10,...,100 sim-us: one per period, not more. *)
  Alcotest.(check int) "one sample per period" 11 (List.length (Timeline.ticks tl));
  Alcotest.(check (list string)) "entities" [ "vm1" ] (Timeline.entities tl);
  let series = Timeline.series tl ~entity:"vm1" Cpu_account.Soft in
  Alcotest.(check int) "series covers every tick" 11 (List.length series);
  ignore
    (List.fold_left
       (fun prev (_, v) ->
         Alcotest.(check bool) "cumulative series non-decreasing" true
           (v >= prev);
         v)
       0 series);
  (match List.rev series with
  | (ts, v) :: _ ->
    Alcotest.(check int) "last tick date" (Time.us 100) ts;
    Alcotest.(check int) "final sample = total charged" (Time.us 5) v
  | [] -> Alcotest.fail "empty series");
  Alcotest.(check (list (pair int int)))
    "ticks before first charge read 0"
    [ (0, 0); (Time.us 10, 0); (Time.us 20, 0) ]
    (List.filteri (fun i _ -> i < 3) series);
  (* Stopped: driving the engine further adds no samples. *)
  Engine.schedule e ~delay:(Time.us 50) (fun () -> ());
  Engine.run ~until:(Time.us 200) e;
  Alcotest.(check int) "no samples after stop" 11 (List.length (Timeline.ticks tl))

(* --- pay-for-use: prov=None allocates exactly like the untimed path --- *)

(* Top-level so the continuation captures nothing and allocates once. *)
let knop () = ()

let alloc_per_call f =
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_prov_disabled_is_free () =
  let e = Engine.create () in
  let exec = Exec.create e ~name:"ctx" in
  let hop = Hop.make exec ~name:"h" ~fixed_ns:100 in
  let service () = Hop.service hop ~bytes:64 knop in
  let service_prov () = Hop.service_prov hop ~extra_ns:0 ~bytes:64 knop in
  (* Warm both paths (first calls may allocate caches), then measure. *)
  service ();
  service_prov ();
  Engine.run e;
  let base = alloc_per_call service in
  Engine.run e;
  let timed_off = alloc_per_call service_prov in
  Engine.run e;
  Alcotest.(check (float 0.5))
    "service_prov without a record allocates like service" base timed_off

(* --- timed probes through the real deployment modes --- *)

let deploy_single_sync ~mode =
  let tb = Testbed.create ~num_vms:1 () in
  let site = ref None in
  Deploy.deploy_single tb ~mode ~name:"pod" ~entity:"srv" ~port:7000
    ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  match !site with
  | Some s -> (tb, s)
  | None ->
    Alcotest.failf "deploy_single %s never completed"
      (Modes.single_to_string mode)

let deploy_pair_sync ~mode =
  let tb = Testbed.create ~num_vms:2 () in
  let site = ref None in
  Deploy.deploy_pair tb ~mode ~name:"pod" ~a_entity:"cli" ~b_entity:"srv"
    ~port:7000 ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  match !site with
  | Some s -> (tb, s)
  | None ->
    Alcotest.failf "deploy_pair %s never completed" (Modes.pair_to_string mode)

(* Runs the timed probe and returns (engine, entries, delivery date). *)
let timed_probe ~tb ~src ~dst ~dst_addr ~port =
  let engine = tb.Testbed.engine in
  let got = ref None in
  Path_probe.udp_timed_path ~src ~dst ~dst_addr ~port
    ~k:(fun entries -> got := Some (entries, Engine.now engine))
    ();
  Testbed.run_until tb (Time.sec 3);
  match !got with
  | Some (entries, at) -> (engine, entries, at)
  | None -> Alcotest.fail "timed probe never delivered"

(* The reconciliation contract: the datagram's one-way latency (send date
   to delivery date, both measured outside the provenance machinery)
   decomposes into the recorded per-hop queue+service times within 1 ns
   per hop; stamps are internally ordered; every serviced hop fed its
   metrics histograms. *)
let check_reconciles label engine entries delivered_at =
  Alcotest.(check bool) (label ^ ": recorded hops") true (entries <> []);
  List.iter
    (fun en ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s stamps ordered" label en.P.hop)
        true
        (en.P.enqueue_ns <= en.P.start_ns && en.P.start_ns <= en.P.end_ns))
    entries;
  ignore
    (List.fold_left
       (fun prev en ->
         Alcotest.(check bool)
           (Printf.sprintf "%s: %s in causal order" label en.P.hop)
           true (en.P.enqueue_ns >= prev);
         en.P.enqueue_ns)
       0 entries);
  let sent_at = (List.hd entries).P.enqueue_ns in
  let e2e = delivered_at - sent_at in
  let attributed =
    List.fold_left (fun a en -> a + P.queue_ns en + P.service_ns en) 0 entries
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: attribution reconciles (e2e %d vs attributed %d)"
       label e2e attributed)
    true
    (abs (e2e - attributed) <= List.length entries);
  let m = Engine.metrics engine in
  List.iter
    (fun en ->
      if P.service_ns en > 0 then
        List.iter
          (fun suffix ->
            let key = "hop." ^ en.P.hop ^ suffix in
            match Metrics.find m key with
            | Some (Metrics.Summary { count; _ }) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s populated" label key)
                true (count >= 1)
            | _ -> Alcotest.failf "%s: histogram %s missing" label key)
          [ ".queue_ns"; ".service_ns" ])
    entries

let probe_single mode =
  let tb, site = deploy_single_sync ~mode in
  timed_probe ~tb ~src:tb.Testbed.client_ns ~dst:site.Deploy.site_ns
    ~dst_addr:site.Deploy.site_addr ~port:site.Deploy.site_port

let probe_pair mode =
  let tb, site = deploy_pair_sync ~mode in
  timed_probe ~tb ~src:site.Deploy.a_ns ~dst:site.Deploy.b_ns
    ~dst_addr:site.Deploy.b_addr ~port:site.Deploy.b_port

let test_reconcile_single mode () =
  let label = Modes.single_to_string mode in
  let engine, entries, at = probe_single mode in
  check_reconciles label engine entries at

let test_reconcile_pair mode () =
  let label = Modes.pair_to_string mode in
  let engine, entries, at = probe_pair mode in
  check_reconciles label engine entries at

let test_brfusion_beats_nat () =
  let _, nat, _ = probe_single `Nat in
  let _, brf, _ = probe_single `Brfusion in
  let service es = List.fold_left (fun a en -> a + P.service_ns en) 0 es in
  (* Fig. 1: fusing the pod NIC onto the host bridge removes the in-VM
     bridge/NAT layer — strictly fewer hops and less total service. *)
  Alcotest.(check bool)
    (Printf.sprintf "fewer hops (%d < %d)" (List.length brf) (List.length nat))
    true
    (List.length brf < List.length nat);
  Alcotest.(check bool)
    (Printf.sprintf "less summed service (%d < %d)" (service brf) (service nat))
    true
    (service brf < service nat)

(* --- Chrome trace export: round-trip through a JSON parser --- *)

(* Minimal recursive-descent JSON parser: enough to validate that the
   exporter emits well-formed documents without pulling in a JSON
   dependency.  Raises [Failure] on malformed input. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let advance () = incr pos in
    let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if peek () = c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal lit v =
      String.iter expect lit;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            (* Keep the code point as its escape; the exporter never
               emits \u for ASCII so nothing round-trips through here. *)
            for _ = 1 to 4 do
              advance ()
            done;
            Buffer.add_char b '?'
          | c -> fail (Printf.sprintf "bad escape %c" c));
          advance ();
          go ()
        | '\255' -> fail "unterminated string"
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && number_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              members ((key, v) :: acc)
            | '}' ->
              advance ();
              Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elements (v :: acc)
            | ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
        end
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number () |> fun f -> Num f
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let str = function Str s -> Some s | _ -> None
  let num = function Num f -> Some f | _ -> None
end

let get_exn what = function
  | Some v -> v
  | None -> Alcotest.failf "missing %s" what

let test_export_roundtrip () =
  let ex = Trace_export.create () in
  let pid = Trace_export.process ex ~name:"proc \"zero\"" in
  Trace_export.span ex ~pid ~cat:"c" ~name:"work" ~start_ns:100 ~end_ns:250
    [ ("k", "1") ];
  Trace_export.instant ex ~pid ~cat:"c" ~name:"blip" ~ts:300 [];
  Trace_export.counter ex ~pid ~name:"depth" ~ts:400 [ ("v", "2.5") ];
  let p = P.create () in
  P.add p ~hop:"hop\"quoted" ~enqueue_ns:0 ~start_ns:5 ~end_ns:20;
  Trace_export.add_provenance ex ~pid (P.entries p);
  let doc = Json.parse (Trace_export.to_string ex) in
  Alcotest.(check (option string))
    "displayTimeUnit" (Some "ns")
    (Option.bind (Json.member "displayTimeUnit" doc) Json.str);
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr es) -> es
    | _ -> Alcotest.fail "traceEvents missing or not an array"
  in
  Alcotest.(check int) "event_count matches the document"
    (Trace_export.event_count ex)
    (List.length events);
  let ph e = Option.bind (Json.member "ph" e) Json.str |> get_exn "ph" in
  let by_ph c = List.filter (fun e -> ph e = c) events in
  (* M: process_name; B/E: span + provenance slice. *)
  Alcotest.(check int) "metadata events" 1 (List.length (by_ph "M"));
  Alcotest.(check int) "begin events" 2 (List.length (by_ph "B"));
  Alcotest.(check int) "end events" 2 (List.length (by_ph "E"));
  Alcotest.(check int) "instants" 1 (List.length (by_ph "i"));
  Alcotest.(check int) "counters" 1 (List.length (by_ph "C"));
  (* The quoted process name survived the trip. *)
  let pnames =
    List.filter_map
      (fun e ->
        match Option.bind (Json.member "name" e) Json.str with
        | Some "process_name" ->
          Option.bind (Json.member "args" e) (Json.member "name")
          |> Fun.flip Option.bind Json.str
        | _ -> None)
      events
  in
  Alcotest.(check (list string)) "escaped process name" [ "proc \"zero\"" ]
    pnames;
  (* ns → us: the span beginning at 100 ns has ts 0.1 us, duration via
     its E at 0.25 us; nothing rounded away. *)
  let span_b =
    List.find
      (fun e -> ph e = "B" && Json.member "name" e = Some (Json.Str "work"))
      events
  in
  Alcotest.(check (float 1e-9)) "ts in microseconds" 0.1
    (Option.bind (Json.member "ts" span_b) Json.num |> get_exn "ts");
  (* The provenance slice carries its attribution args. *)
  let hop_b =
    List.find
      (fun e ->
        ph e = "B" && Json.member "cat" e = Some (Json.Str "hop"))
      events
  in
  Alcotest.(check (option string)) "hop name escaped" (Some "hop\"quoted")
    (Option.bind (Json.member "name" hop_b) Json.str);
  let arg key =
    Option.bind (Json.member "args" hop_b) (Json.member key)
    |> Fun.flip Option.bind Json.num
  in
  Alcotest.(check (option (float 0.0))) "queue_ns arg" (Some 5.0) (arg "queue_ns");
  Alcotest.(check (option (float 0.0))) "service_ns arg" (Some 15.0)
    (arg "service_ns")

(* A full probe's export must parse too — this is the `nestsim obs`
   payload end to end, minus the CLI. *)
let test_probe_export_parses () =
  let tb, site = deploy_single_sync ~mode:`Brfusion in
  let tr = Trace.create ~capacity:4096 () in
  Engine.set_tracer tb.Testbed.engine (Some tr);
  let _, entries, _ =
    timed_probe ~tb ~src:tb.Testbed.client_ns ~dst:site.Deploy.site_ns
      ~dst_addr:site.Deploy.site_addr ~port:site.Deploy.site_port
  in
  Engine.set_tracer tb.Testbed.engine None;
  let ex = Trace_export.create () in
  let pid = Trace_export.process ex ~name:"single:brfusion" in
  Trace_export.add_trace ex ~pid tr;
  Trace_export.add_provenance ex ~pid entries;
  let doc = Json.parse (Trace_export.to_string ex) in
  (match Json.member "traceEvents" doc with
  | Some (Json.Arr es) ->
    Alcotest.(check bool) "events present" true (List.length es > 10);
    Alcotest.(check bool) "hop slices present" true
      (List.exists (fun e -> Json.member "cat" e = Some (Json.Str "hop")) es)
  | _ -> Alcotest.fail "traceEvents missing");
  (* B/E only: the replayed trace ring contributes cat-"hop" *instants*
     (device crossings), which are not attribution slices. *)
  Alcotest.(check int) "one hop slice pair per entry"
    (List.length entries * 2)
    (List.length
       (match Json.member "traceEvents" doc with
       | Some (Json.Arr es) ->
         List.filter
           (fun e ->
             Json.member "cat" e = Some (Json.Str "hop")
             && (Json.member "ph" e = Some (Json.Str "B")
                || Json.member "ph" e = Some (Json.Str "E")))
           es
       | _ -> []))

let () =
  Alcotest.run "provenance"
    [ ( "record",
        [ Alcotest.test_case "arithmetic" `Quick test_record_arithmetic;
          Alcotest.test_case "gap" `Quick test_gap;
          Alcotest.test_case "branch" `Quick test_branch ] );
      ( "trace",
        [ Alcotest.test_case "iter" `Quick test_trace_iter ] );
      ( "path-probe",
        [ Alcotest.test_case "contains_seq edges" `Quick test_contains_seq ] );
      ( "timeline",
        [ Alcotest.test_case "sampling" `Quick test_timeline_sampling ] );
      ( "pay-for-use",
        [ Alcotest.test_case "disabled is free" `Quick
            test_prov_disabled_is_free ] );
      ( "reconcile",
        [ Alcotest.test_case "nat" `Quick (test_reconcile_single `Nat);
          Alcotest.test_case "brfusion" `Quick
            (test_reconcile_single `Brfusion);
          Alcotest.test_case "hostlo" `Quick (test_reconcile_pair `Hostlo);
          Alcotest.test_case "overlay" `Quick (test_reconcile_pair `Overlay);
          Alcotest.test_case "brfusion beats nat" `Quick
            test_brfusion_beats_nat ] );
      ( "export",
        [ Alcotest.test_case "round-trip" `Quick test_export_roundtrip;
          Alcotest.test_case "probe export parses" `Quick
            test_probe_export_parses ] ) ]
