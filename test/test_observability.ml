(* Observability layer (Trace + Metrics + engine wiring) and regression
   tests for the space-leak / stale-state fixes that landed with it:
   heap slots cleared on pop, per-config Hostlo state, NaN-safe cached
   percentiles.  The reconciliation tests assert the layer is *truthful*:
   trace instants must agree with the datapath counters they mirror. *)

open Nest_net
open Nestfusion
module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Trace = Nest_sim.Trace
module Metrics = Nest_sim.Metrics
module Stats = Nest_sim.Stats
module Hdr = Nest_sim.Hdr
module Heap = Nest_sim.Heap

(* --- Trace ring --- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.instant tr ~ts:i ~cat:"t" ~name:(string_of_int i) ()
  done;
  Alcotest.(check int) "recorded" 6 (Trace.recorded tr);
  Alcotest.(check int) "dropped" 2 (Trace.dropped tr);
  Alcotest.(check (list string))
    "oldest first, oldest two overwritten"
    [ "3"; "4"; "5"; "6" ]
    (List.map (fun e -> e.Trace.name) (Trace.events tr))

let test_trace_capacity_ceiling () =
  let rejects capacity =
    match Trace.create ~capacity () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check int) "rounded up to a power of two" 8
    (Trace.capacity (Trace.create ~capacity:5 ()));
  (* Above the ceiling no ring is allocated and no rounding loop runs:
     near max_int the doubling would overflow to 0 and never end. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "capacity %d rejected" c) true
        (rejects c))
    [ 0; -1; Trace.max_capacity + 1; 1 lsl 40; 4611686018427387903; max_int ]

let test_trace_by_name () =
  let tr = Trace.create ~capacity:16 () in
  Trace.instant tr ~ts:1 ~cat:"hop" ~name:"br0" ();
  Trace.instant tr ~ts:2 ~cat:"hop" ~name:"br0" ();
  Trace.instant tr ~ts:3 ~cat:"pkt" ~name:"ns1" ~arg:"delivered" ();
  Alcotest.(check (list (pair string int)))
    "aggregated"
    [ ("hop:br0", 2); ("pkt:ns1", 1) ]
    (Trace.by_name tr)

let test_engine_spans_and_profile () =
  let e = Engine.create () in
  let tr = Trace.create ~capacity:64 () in
  Engine.set_tracer e (Some tr);
  (* Deterministic profiling clock: 0.5 "seconds" per reading. *)
  let ticks = ref 0.0 in
  Engine.enable_profiling e
    ~clock:(fun () ->
      ticks := !ticks +. 0.5;
      !ticks);
  Engine.schedule e ~label:"worker" ~delay:5 (fun () ->
      Engine.trace_instant e ~cat:"t" ~name:"inside" ());
  Engine.schedule e ~delay:7 (fun () -> ());
  Engine.run e;
  let shape =
    List.map
      (fun ev ->
        ( (match ev.Trace.kind with
          | Trace.Span_begin -> "begin"
          | Trace.Span_end -> "end"
          | Trace.Instant -> "instant"),
          ev.Trace.name,
          ev.Trace.ts ))
      (Trace.events tr)
  in
  (* The labeled event is bracketed; the instant nests inside; the
     unlabeled event produces no span. *)
  Alcotest.(check (list (triple string string int)))
    "span brackets"
    [ ("begin", "worker", 5); ("instant", "inside", 5); ("end", "worker", 5) ]
    shape;
  let prof = Engine.profile e in
  let calls_of label =
    List.filter_map
      (fun (l, calls, _) -> if l = label then Some calls else None)
      prof
  in
  Alcotest.(check (list int)) "labeled profiled" [ 1 ] (calls_of "worker");
  Alcotest.(check (list int)) "unlabeled profiled" [ 1 ] (calls_of "<unlabeled>");
  List.iter
    (fun (_, _, wall) ->
      Alcotest.(check (float 1e-9)) "injected clock" 0.5 wall)
    prof

(* The ledger charges each event's body and nothing else: a labeled
   event allocating one 10-word block reads exactly 10 words, the
   unlabeled events that allocate nothing read 0, and a tracer adds
   nothing to either once the label's trace name is interned (by a
   first event, before profiling starts). *)
let test_engine_alloc_ledger () =
  let e = Engine.create () in
  Engine.set_tracer e (Some (Trace.create ~capacity:64 ()));
  let lbl = Engine.label e "boxes" in
  Engine.schedule_labeled e lbl ~at:0 ignore;
  Engine.run e;
  Engine.enable_profiling e;
  for i = 1 to 100 do
    Engine.schedule_labeled e lbl ~at:i (fun () ->
        ignore (Sys.opaque_identity (Array.make 9 0)));
    Engine.schedule e ~delay:i ignore
  done;
  Engine.run e;
  Alcotest.(check (list (triple string int (float 0.0))))
    "rows" [ ("boxes", 100, 1000.0); ("<unlabeled>", 100, 0.0) ]
    (Engine.alloc_profile e)

(* --- Metrics registry --- *)

let test_metrics_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" in
  for _ = 1 to 5 do
    Metrics.bump c
  done;
  Metrics.gauge_probe m "depth" (fun () -> 3.5);
  let backing = ref 7.0 in
  Metrics.gauge_probe m "probe" (fun () -> !backing);
  let h = Metrics.histogram m "lat" in
  Hdr.add h 1.0;
  Hdr.add h 3.0;
  Alcotest.(check int) "counter handle" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "same handle on re-lookup" true
    (Metrics.counter m "requests" == c);
  (match Metrics.snapshot m with
  | [ ("depth", Metrics.Gauge d);
      ("lat", Metrics.Summary { count; mean; _ });
      ("probe", Metrics.Gauge p); ("requests", Metrics.Counter n) ] ->
    Alcotest.(check (float 0.0)) "gauge" 3.5 d;
    Alcotest.(check int) "hist count" 2 count;
    Alcotest.(check (float 1e-9)) "hist mean" 2.0 mean;
    Alcotest.(check (float 0.0)) "probe read at snapshot" 7.0 p;
    Alcotest.(check int) "counter" 5 n
  | snap ->
    Alcotest.failf "unexpected snapshot shape (%d entries)" (List.length snap));
  backing := 9.0;
  (match Metrics.find m "probe" with
  | Some (Metrics.Gauge p) -> Alcotest.(check (float 0.0)) "probe live" 9.0 p
  | _ -> Alcotest.fail "probe lost");
  Alcotest.(check bool) "flavour clash rejected" true
    (try
       ignore (Metrics.counter m "depth");
       false
     with Invalid_argument _ -> true)

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.bump (Metrics.counter m "c");
  Metrics.bump (Metrics.counter m "c");
  Metrics.gauge_probe m "g\"q" (fun () -> 1.5);
  Hdr.add (Metrics.histogram m "h") 4.0;
  let j = Metrics.to_json m in
  Alcotest.(check bool) "escaped name" true
    (Astring.String.is_infix ~affix:"g\\\"q" j);
  Alcotest.(check bool) "counter value" true
    (Astring.String.is_infix ~affix:"\"value\":2" j);
  Alcotest.(check bool) "histogram count" true
    (Astring.String.is_infix ~affix:"\"count\":1" j);
  (* Histograms dump their full percentile ladder, not just a mean. *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " emitted") true
        (Astring.String.is_infix ~affix:("\"" ^ key ^ "\":") j))
    [ "p50"; "p90"; "p99"; "p999"; "min"; "max"; "total"; "mean" ]

(* --- Heap slot release (space-leak regression) --- *)

(* Helpers allocate in their own frame so the test frame holds no hidden
   strong reference when the GC runs. *)
let[@inline never] push_tracked h w i ~prio =
  let v = Bytes.make 32 'x' in
  Weak.set w i (Some v);
  Heap.push h ~tag:0 ~prio v

let[@inline never] pop_one h = ignore (Helpers.heap_pop h : _ option)

let weak_cleared w i = Weak.get w i = None

(* Value 0 takes the queue's empty front slot, value 1 displaces it into
   the heap and takes the slot, and value 2 goes to the heap: the pops
   take 1 from the slot, then 0 (displaced) and 2 from the heap. *)
let test_heap_pop_releases () =
  let h = Heap.create ~dummy:Bytes.empty () in
  let w = Weak.create 3 in
  push_tracked h w 0 ~prio:2;
  push_tracked h w 1 ~prio:1;
  push_tracked h w 2 ~prio:3;
  pop_one h;
  Gc.full_major ();
  Alcotest.(check bool) "slot value released after pop" true (weak_cleared w 1);
  Alcotest.(check bool) "displaced value still queued" false (weak_cleared w 0);
  pop_one h;
  Gc.full_major ();
  Alcotest.(check bool) "displaced value released after pop" true
    (weak_cleared w 0);
  pop_one h;
  Gc.full_major ();
  Alcotest.(check bool) "heap value released after pop" true (weak_cleared w 2);
  (* The heap stays usable afterwards. *)
  Heap.push h ~tag:0 ~prio:1 (Bytes.make 1 'y');
  Alcotest.(check int) "reusable" 1 (Heap.size h)

(* --- Stats: NaN-safe cached percentiles --- *)

let test_stats_nan_and_cache () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0; Float.nan ];
  (* Float.compare totally orders NaN below all numbers, so the median of
     three samples is the finite middle one, not garbage from an
     inconsistent polymorphic sort. *)
  Alcotest.(check (float 0.0)) "p50 with NaN sample" 1.0
    (Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p100 with NaN sample" 3.0
    (Stats.percentile s 100.0);
  Stats.add s 5.0;
  Alcotest.(check (float 0.0)) "cache invalidated by add" 5.0
    (Stats.percentile s 100.0)

(* --- Hostlo state lives in the config --- *)

let test_hostlo_state_per_config () =
  let tb = Testbed.create ~num_vms:2 () in
  let c1 = Hostlo.make_config tb.Testbed.vmm in
  let c2 = Hostlo.make_config tb.Testbed.vmm in
  let added = ref 0 in
  let p1 = Hostlo.plugin c1 in
  p1.Nest_orch.Cni.add ~pod_name:"pod" ~node:(Testbed.node tb 0) ~publish:[]
    ~k:(fun _ -> incr added);
  p1.Nest_orch.Cni.add ~pod_name:"pod" ~node:(Testbed.node tb 1) ~publish:[]
    ~k:(fun _ -> incr added);
  Testbed.run_until tb (Time.sec 1);
  Alcotest.(check int) "two fractions deployed" 2 !added;
  Alcotest.(check int) "c1 counts its fractions" 2 (Hostlo.fractions c1 "pod");
  Alcotest.(check bool) "c1 has the tap" true
    (Hostlo.tap_of_pod c1 "pod" <> None);
  (* A second config over the same VMM is a fresh deployment: it must not
     observe (or reuse) c1's TAPs. *)
  Alcotest.(check int) "c2 sees no fractions" 0 (Hostlo.fractions c2 "pod");
  Alcotest.(check bool) "c2 has no tap" true
    (Hostlo.tap_of_pod c2 "pod" = None)

let[@inline never] deploy_and_track tb w =
  let c = Hostlo.make_config tb.Testbed.vmm in
  let added = ref 0 in
  let p = Hostlo.plugin c in
  p.Nest_orch.Cni.add ~pod_name:"wpod" ~node:(Testbed.node tb 0) ~publish:[]
    ~k:(fun _ -> incr added);
  Testbed.run_until tb (Time.sec 1);
  Alcotest.(check int) "fraction deployed" 1 !added;
  Weak.set w 0 (Some c)

let test_hostlo_config_collectable () =
  (* Regression: a module-global registry used to retain every config
     (and its TAP tables) for the life of the process. *)
  let tb = Testbed.create ~num_vms:2 () in
  let w = Weak.create 1 in
  deploy_and_track tb w;
  Gc.full_major ();
  Alcotest.(check bool) "config released after run" true (Weak.get w 0 = None)

(* --- Trace/counter reconciliation over real deployments --- *)

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

let count_instants tr ~cat ~name ~arg =
  List.length
    (List.filter
       (fun e ->
         e.Trace.kind = Trace.Instant
         && e.Trace.cat = cat && e.Trace.name = name && e.Trace.arg = arg)
       (Trace.events tr))

let count_cat tr ~cat =
  List.length
    (List.filter
       (fun e -> e.Trace.kind = Trace.Instant && e.Trace.cat = cat)
       (Trace.events tr))

(* Runs [n] UDP echos through a deployed single-server site with a tracer
   installed for the traffic phase only.  Returns (trace, hop instants,
   per-ns checks run). *)
let echo_traffic_traced mode n =
  let tb, site = deploy_single_sync ~mode in
  let engine = tb.Testbed.engine in
  let tr = Trace.create ~capacity:65536 () in
  Engine.set_tracer engine (Some tr);
  let srv = site.Deploy.site_ns and cli = tb.Testbed.client_ns in
  let srv_before = (Stack.counters srv).Stack.delivered in
  let cli_before = (Stack.counters cli).Stack.delivered in
  let bridge_hops () =
    match Metrics.find (Engine.metrics engine) "hop.virbr0" with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.fail "hop.virbr0 metric missing"
  in
  let bridge_before = bridge_hops () in
  let echoed = ref 0 in
  let server =
    Stack.Udp.bind srv ~port:site.Deploy.site_port
      (fun s ~src:ip ~src_port:p payload ->
        Stack.Udp.sendto s ~dst:ip ~dst_port:p payload)
  in
  let client =
    Stack.Udp.bind cli ~port:0 (fun _ ~src:_ ~src_port:_ _ -> incr echoed)
  in
  for _ = 1 to n do
    Stack.Udp.sendto client ~dst:site.Deploy.site_addr
      ~dst_port:site.Deploy.site_port (Payload.raw 256)
  done;
  Testbed.run_until tb (Time.sec 3);
  Stack.Udp.close server;
  Stack.Udp.close client;
  Alcotest.(check int)
    (Modes.single_to_string mode ^ ": all echoed")
    n !echoed;
  let srv_delta = (Stack.counters srv).Stack.delivered - srv_before in
  let cli_delta = (Stack.counters cli).Stack.delivered - cli_before in
  Alcotest.(check int)
    (Modes.single_to_string mode ^ ": server trace instants = counter delta")
    srv_delta
    (count_instants tr ~cat:"pkt" ~name:(Stack.name srv) ~arg:"delivered");
  Alcotest.(check int)
    (Modes.single_to_string mode ^ ": client trace instants = counter delta")
    cli_delta
    (count_instants tr ~cat:"pkt" ~name:(Stack.name cli) ~arg:"delivered");
  (* The host bridge's hop metric counts every frame the bridge takes
     in; over the traffic phase that is one [hop:virbr0] instant each. *)
  Alcotest.(check int) (Modes.single_to_string mode ^ ": ring kept all") 0
    (Trace.dropped tr);
  Alcotest.(check int)
    (Modes.single_to_string mode ^ ": bridge hop metric delta = instants")
    (bridge_hops () - bridge_before)
    (count_instants tr ~cat:"hop" ~name:"virbr0" ~arg:"");
  Engine.set_tracer engine None;
  count_cat tr ~cat:"hop"

let test_reconcile_nat_vs_brfusion () =
  let n = 5 in
  let nat_hops = echo_traffic_traced `Nat n in
  let brf_hops = echo_traffic_traced `Brfusion n in
  Alcotest.(check bool) "both paths cross devices" true
    (nat_hops > 0 && brf_hops > 0);
  (* BrFusion removes the in-VM bridge/NAT layer, so the same traffic
     crosses strictly fewer instrumented hops (Fig. 1). *)
  Alcotest.(check bool)
    (Printf.sprintf "fused path shorter (%d < %d)" brf_hops nat_hops)
    true (brf_hops < nat_hops)

let test_reconcile_hostlo_pair () =
  let tb = Testbed.create ~num_vms:2 () in
  let site = ref None in
  Deploy.deploy_pair tb ~mode:`Hostlo ~name:"pod" ~a_entity:"cli"
    ~b_entity:"srv" ~port:7000 ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  let site =
    match !site with
    | Some s -> s
    | None -> Alcotest.fail "hostlo pair never deployed"
  in
  let engine = tb.Testbed.engine in
  let tr = Trace.create ~capacity:65536 () in
  Engine.set_tracer engine (Some tr);
  let b_before = (Stack.counters site.Deploy.b_ns).Stack.delivered in
  let echoed = ref false in
  let server =
    Stack.Udp.bind site.Deploy.b_ns ~port:site.Deploy.b_port
      (fun s ~src:ip ~src_port:p payload ->
        Stack.Udp.sendto s ~dst:ip ~dst_port:p payload)
  in
  let client =
    Stack.Udp.bind site.Deploy.a_ns ~port:0 (fun _ ~src:_ ~src_port:_ _ ->
        echoed := true)
  in
  Stack.Udp.sendto client ~dst:site.Deploy.b_addr ~dst_port:site.Deploy.b_port
    (Payload.raw 128);
  Testbed.run_until tb (Time.sec 3);
  Stack.Udp.close server;
  Stack.Udp.close client;
  Alcotest.(check bool) "hostlo echo" true !echoed;
  let b_delta = (Stack.counters site.Deploy.b_ns).Stack.delivered - b_before in
  Alcotest.(check int) "server trace instants = counter delta" b_delta
    (count_instants tr ~cat:"pkt"
       ~name:(Stack.name site.Deploy.b_ns)
       ~arg:"delivered");
  (* Cross-VM localhost traffic reflects through the loopback tap and
     never touches the host bridge. *)
  Alcotest.(check bool) "crosses the hostlo tap" true
    (count_instants tr ~cat:"hop" ~name:"hostlo-pod" ~arg:"" > 0);
  Alcotest.(check int) "never crosses virbr0" 0
    (count_instants tr ~cat:"hop" ~name:"virbr0" ~arg:"");
  match Metrics.find (Engine.metrics engine) "hop.hostlo-pod" with
  | Some (Metrics.Counter n) ->
    Alcotest.(check bool) "hostlo tap hop metric counted" true (n > 0)
  | _ -> Alcotest.fail "hop.hostlo-pod metric missing"

let () =
  Alcotest.run "observability"
    [ ( "trace",
        [ Alcotest.test_case "ring" `Quick test_trace_ring;
          Alcotest.test_case "capacity ceiling" `Quick
            test_trace_capacity_ceiling;
          Alcotest.test_case "by-name" `Quick test_trace_by_name;
          Alcotest.test_case "engine spans + profile" `Quick
            test_engine_spans_and_profile;
          Alcotest.test_case "allocation ledger" `Quick
            test_engine_alloc_ledger ] );
      ( "metrics",
        [ Alcotest.test_case "roundtrip + reset" `Quick test_metrics_roundtrip;
          Alcotest.test_case "json" `Quick test_metrics_json ] );
      ( "leaks",
        [ Alcotest.test_case "heap pop releases" `Quick test_heap_pop_releases;
          Alcotest.test_case "hostlo config collectable" `Quick
            test_hostlo_config_collectable ] );
      ( "stats",
        [ Alcotest.test_case "nan + cache" `Quick test_stats_nan_and_cache ] );
      ( "state",
        [ Alcotest.test_case "hostlo per-config" `Quick
            test_hostlo_state_per_config ] );
      ( "reconcile",
        [ Alcotest.test_case "nat vs brfusion" `Quick
            test_reconcile_nat_vs_brfusion;
          Alcotest.test_case "hostlo pair" `Quick test_reconcile_hostlo_pair ]
      ) ]
