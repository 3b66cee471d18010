(* Link impairment + TCP loss recovery: fast retransmit, RTO, and the
   exactly-once delivery property under random loss. *)

open Nest_net
module Engine = Nest_sim.Engine
module Exec = Nest_sim.Exec
module Time = Nest_sim.Time

let qtest = QCheck_alcotest.to_alcotest
let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

let cheap_costs e =
  let sys_exec = Exec.create e ~name:"sys" in
  let soft_exec = Exec.create e ~name:"soft" in
  { Stack.tx = Hop.make sys_exec ~fixed_ns:100;
    rx = Hop.make soft_exec ~fixed_ns:100;
    forward = Hop.make soft_exec ~fixed_ns:50;
    nat = Hop.make soft_exec ~fixed_ns:50;
    nat_per_rule_ns = 10;
    local = Hop.make sys_exec ~fixed_ns:100;
    syscall = Hop.make sys_exec ~fixed_ns:50;
    wakeup_delay_ns = 0 }

let two_ns seed =
  let e = Engine.create ~seed () in
  let a = Stack.create e ~name:"a" ~costs:(cheap_costs e) () in
  let b = Stack.create e ~name:"b" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let da, db =
    Veth.pair ~a_name:"a0" ~a_mac:(Mac.of_int 0xa) ~b_name:"b0"
      ~b_mac:(Mac.of_int 0xb) ~ab_hop:hop ~ba_hop:hop ()
  in
  Stack.attach a da;
  Stack.add_addr a da (ip "192.168.1.1") (cidr "192.168.1.0/24");
  Stack.attach b db;
  Stack.add_addr b db (ip "192.168.1.2") (cidr "192.168.1.0/24");
  (e, a, b, da, db)

let test_netem_loss_counts () =
  let e, a, b, da, _ = two_ns 1L in
  let rng = Nest_sim.Prng.create 5L in
  let nm = Netem.shape e da ~loss:1.0 ~rng () in
  let got = ref 0 in
  let _s = Stack.Udp.bind b ~port:9 (fun _ ~src:_ ~src_port:_ _ -> incr got) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  for _ = 1 to 10 do
    Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:9 (Payload.raw 16)
  done;
  Engine.run ~until:(Time.sec 10) e;
  Alcotest.(check int) "nothing through at 100% loss" 0 !got;
  (* The ARP probe and its retries are the frames the shaper ate; the 10
     datagrams died queued behind the unresolved neighbour. *)
  Alcotest.(check bool) "ARP probes + retries counted" true
    (Netem.dropped_loss nm >= 3);
  Alcotest.(check int) "queued datagrams failed with the neighbour" 10
    (Stack.counters a).Stack.dropped_no_route;
  Netem.remove nm;
  Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:9 (Payload.raw 16);
  Engine.run e;
  Alcotest.(check int) "restored after remove" 1 !got

let test_netem_delay () =
  let e, a, _b, da, db = two_ns 2L in
  let rng = Nest_sim.Prng.create 6L in
  let _n1 = Netem.shape e da ~delay_ns:(Time.ms 5) ~rng () in
  let _n2 = Netem.shape e db ~delay_ns:(Time.ms 5) ~rng () in
  let rtt = ref 0 in
  Stack.ping a ~dst:(ip "192.168.1.2") ~on_reply:(fun ~rtt_ns -> rtt := rtt_ns);
  Engine.run e;
  (* ARP exchange + echo: at least 2x 5ms one-way delays on the echo
     itself. *)
  Alcotest.(check bool)
    (Printf.sprintf "rtt includes both delays (got %.2fms)" (Time.to_ms_f !rtt))
    true
    (!rtt >= Time.ms 10)

let test_netem_overflow () =
  let e, _, _, da, _ = two_ns 3L in
  let rng = Nest_sim.Prng.create 7L in
  let nm = Netem.shape e da ~delay_ns:(Time.ms 100) ~limit:3 ~rng () in
  for _ = 1 to 10 do
    Dev.transmit da
      (Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
         (Frame.Ipv4_body
            (Packet.make ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
               (Packet.Udp { src_port = 1; dst_port = 2; payload = Payload.raw 8 }))))
  done;
  Alcotest.(check int) "tail dropped beyond limit" 7 (Netem.dropped_overflow nm);
  Engine.run e;
  Alcotest.(check int) "the rest passed" 3 (Netem.passed nm)

let transfer_under_loss ~seed ~loss ~bytes =
  let e, a, b, da, db = two_ns seed in
  let rng = Nest_sim.Prng.create (Int64.add seed 1000L) in
  (* Impair only data/ack frames after the connection establishes, so the
     handshake isn't (un)lucky — loss recovery is what's under test. *)
  let received = ref 0 in
  let conn = ref None in
  Stack.Tcp.listen b ~port:80 ~on_accept:(fun c ->
      Stack.Tcp.set_on_receive c (fun ~bytes ~msgs:_ ->
          received := !received + bytes));
  let c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun c -> conn := Some c)
      ()
  in
  Engine.run e;
  let c = match !conn with Some _ -> c | None -> failwith "no conn" in
  let _n1 = Netem.shape e da ~loss ~rng () in
  let _n2 = Netem.shape e db ~loss ~rng () in
  ignore (Stack.Tcp.send c ~size:bytes ());
  (* Generous horizon: heavy loss needs several RTO cycles. *)
  Engine.run ~until:(Engine.now e + Time.sec 600) e;
  (c, !received)

let test_fast_retransmit_recovers () =
  let c, received = transfer_under_loss ~seed:11L ~loss:0.02 ~bytes:120_000 in
  Alcotest.(check int) "exactly-once delivery" 120_000 received;
  Alcotest.(check bool) "losses were repaired" true
    (Stack.Tcp.retransmits c > 0)

let test_delivery_under_random_loss =
  QCheck.Test.make ~name:"TCP delivers exactly once under random loss"
    ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 0 15))
    (fun (seed, loss_pct) ->
      let bytes = 30_000 in
      let _, received =
        transfer_under_loss ~seed:(Int64.of_int seed)
          ~loss:(float_of_int loss_pct /. 100.0)
          ~bytes
      in
      received = bytes)

let test_tcp_rr_mode () =
  (* Netperf TCP_RR through the real testbed. *)
  let tb = Nestfusion.Testbed.create ~num_vms:1 () in
  let site = ref None in
  Nestfusion.Deploy.deploy_single tb ~mode:`NoCont ~name:"pod" ~entity:"srv"
    ~port:7100 ~k:(fun s -> site := Some s);
  Nestfusion.Testbed.run_until tb (Time.sec 1);
  let ep = Nest_workloads.App.of_single tb (Option.get !site) in
  let r =
    Nest_workloads.Netperf.tcp_rr tb ep ~msg_size:256 ~duration:(Time.ms 150) ()
  in
  Alcotest.(check bool) "transactions" true (r.Nest_workloads.Netperf.transactions > 50);
  let mean = Nest_sim.Stats.mean r.Nest_workloads.Netperf.latency in
  Alcotest.(check bool)
    (Printf.sprintf "TCP_RR latency plausible (got %.1fus)" mean)
    true
    (mean > 20.0 && mean < 200.0)

let () =
  Alcotest.run "netem"
    [ ( "shaper",
        [ Alcotest.test_case "loss" `Quick test_netem_loss_counts;
          Alcotest.test_case "delay" `Quick test_netem_delay;
          Alcotest.test_case "overflow" `Quick test_netem_overflow ] );
      ( "tcp recovery",
        [ Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit_recovers;
          qtest test_delivery_under_random_loss ] );
      ("netperf", [ Alcotest.test_case "tcp_rr" `Quick test_tcp_rr_mode ]) ]
