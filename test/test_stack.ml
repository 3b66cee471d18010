(* Tests for the per-namespace IP stack: ARP, local delivery, forwarding,
   table changes mid-flow, Hostlo reflector egress, sockets, TCP edge
   behaviour, and ARP under the receive-side drop that chaos's corruption
   bursts apply.  TCP loss recovery is in test_tcp_recovery.ml. *)

open Nest_net
module Engine = Nest_sim.Engine
module Exec = Nest_sim.Exec
module Time = Nest_sim.Time
module Prng = Nest_sim.Prng

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

let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

(* Two namespaces joined by a veth pair on 192.168.1.0/24. *)
let two_ns () =
  let e = Engine.create () in
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

let test_arp_resolution () =
  let e, a, b, _, _ = two_ns () in
  let got = ref false in
  let _s =
    Stack.Udp.bind b ~port:53 (fun _ ~src:_ ~src_port:_ _ -> got := true)
  in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:53 (Payload.raw 32);
  Engine.run e;
  Alcotest.(check bool) "delivered after ARP" true !got;
  (* Both sides learned each other. *)
  Alcotest.(check bool) "a cached b" true
    (List.mem_assoc (ip "192.168.1.2") (Stack.arp_cache a));
  Alcotest.(check bool) "b cached a (gratuitous from request)" true
    (List.mem_assoc (ip "192.168.1.1") (Stack.arp_cache b));
  (* Second datagram goes through without a new ARP exchange: count
     deliveries. *)
  Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:53 (Payload.raw 32);
  Engine.run e;
  Alcotest.(check int) "second delivery" 2 (Stack.counters b).Stack.delivered

let test_local_delivery_over_lo () =
  let e = Engine.create () in
  let a = Stack.create e ~name:"solo" ~costs:(cheap_costs e) () in
  let got = ref 0 in
  let _s =
    Stack.Udp.bind a ~port:9000 (fun _ ~src:_ ~src_port:_ _ -> incr got)
  in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Stack.Udp.sendto c ~dst:Ipv4.localhost ~dst_port:9000 (Payload.raw 16);
  Stack.Udp.sendto c ~dst:(ip "127.0.0.42") ~dst_port:9000 (Payload.raw 16);
  Engine.run e;
  Alcotest.(check int) "any 127/8 address delivers locally" 2 !got

let test_no_socket_counted () =
  let e, a, b, _, _ = two_ns () in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:9999 (Payload.raw 16);
  Engine.run e;
  Alcotest.(check int) "dropped_no_socket" 1
    (Stack.counters b).Stack.dropped_no_socket

let test_forwarding_disabled_drops () =
  (* b is not a router: a packet not addressed to it must die there. *)
  let e, a, b, _, _ = two_ns () in
  Stack.set_ip_forward b false;
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  (* A default route pushes an off-subnet destination via the veth. *)
  Route.add_default (Stack.routes a) ~gateway:(ip "192.168.1.2")
    ~dev:(Option.get (Stack.find_dev a "a0"))
    ();
  Stack.Udp.sendto c ~dst:(ip "10.50.0.1") ~dst_port:1 (Payload.raw 16);
  Engine.run e;
  Alcotest.(check int) "not forwarded" 0 (Stack.counters b).Stack.forwarded_pkts;
  Alcotest.(check int) "counted as unroutable" 1
    (Stack.counters b).Stack.dropped_no_route

let test_firewall_drop_counted () =
  let e, a, b, _, _ = two_ns () in
  Helpers.drop_from (Stack.nf b) ~hook:Netfilter.Input
    ~src_subnet:(cidr "192.168.1.0/24");
  let got = ref false in
  let _s =
    Stack.Udp.bind b ~port:53 (fun _ ~src:_ ~src_port:_ _ -> got := true)
  in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:53 (Payload.raw 16);
  Engine.run e;
  Alcotest.(check bool) "filtered" false !got;
  Alcotest.(check int) "counter" 1 (Stack.counters b).Stack.dropped_filtered

(* ------------------------------------------------------------------ *)
(* Table changes mid-flow: netfilter and ARP are read for every packet,
   so a change applies to the flow's next packet. *)

let send_one c dst = Stack.Udp.sendto c ~dst ~dst_port:53 (Payload.raw 32)

(* A flow a -> b:53 that has already delivered three datagrams. *)
let warm_flow () =
  let e, a, b, da, db = two_ns () in
  let _s = Stack.Udp.bind b ~port:53 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  for _ = 1 to 3 do
    send_one c (ip "192.168.1.2");
    Engine.run e
  done;
  Alcotest.(check int) "warm flow delivered" 3 (Stack.counters b).Stack.delivered;
  (e, a, b, da, db, c)

let test_rearp_after_flush () =
  let e, a, b, _, _, c = warm_flow () in
  Stack.arp_flush a;
  Alcotest.(check int) "neighbour table empty" 0
    (List.length (Stack.arp_cache a));
  send_one c (ip "192.168.1.2");
  Engine.run e;
  Alcotest.(check int) "still delivered after re-ARP" 4
    (Stack.counters b).Stack.delivered;
  Alcotest.(check bool) "neighbour learned again" true
    (List.mem_assoc (ip "192.168.1.2") (Stack.arp_cache a))

let test_rule_added_mid_flow () =
  let e, a, b, _, _, c = warm_flow () in
  Helpers.drop_from (Stack.nf a) ~hook:Netfilter.Output
    ~src_subnet:(cidr "192.168.1.0/24");
  send_one c (ip "192.168.1.2");
  Engine.run e;
  Alcotest.(check int) "new rule drops the next packet" 3
    (Stack.counters b).Stack.delivered;
  Alcotest.(check int) "drop counted" 1 (Stack.counters a).Stack.dropped_filtered

(* A local packet meets conntrack before it is routed: a DNAT binding
   on its flow sends it out by the route of the translated destination,
   here a second device toward a third namespace. *)
let test_local_dnat_routes_translated () =
  let e, a, b, _, _ = two_ns () in
  let c = Stack.create e ~name:"c" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let da1, dc =
    Veth.pair ~a_name:"a1" ~a_mac:(Mac.of_int 0xa1) ~b_name:"c0"
      ~b_mac:(Mac.of_int 0xc) ~ab_hop:hop ~ba_hop:hop ()
  in
  Stack.attach a da1;
  Stack.add_addr a da1 (ip "192.168.2.1") (cidr "192.168.2.0/24");
  Stack.attach c dc;
  Stack.add_addr c dc (ip "192.168.2.2") (cidr "192.168.2.0/24");
  let at_b = ref 0 and at_c = ref 0 in
  let _sb =
    Stack.Udp.bind b ~port:53 (fun _ ~src:_ ~src_port:_ _ -> incr at_b)
  in
  let _sc =
    Stack.Udp.bind c ~port:5353 (fun _ ~src:_ ~src_port:_ _ -> incr at_c)
  in
  let s = Stack.Udp.bind a ~port:4000 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let flow =
    Packet.make ~src:(ip "192.168.1.1") ~dst:(ip "192.168.1.2")
      (Packet.Udp { src_port = 4000; dst_port = 53; payload = Payload.raw 32 })
  in
  ignore
    (Conntrack.dnat (Stack.ct a) flow ~to_ip:(ip "192.168.2.2") ~to_port:5353
      : Packet.t);
  send_one s (ip "192.168.1.2");
  Engine.run e;
  Alcotest.(check int) "reaches the translated destination" 1 !at_c;
  Alcotest.(check int) "not the pre-NAT one" 0 !at_b;
  Alcotest.(check int) "nothing reaches b's stack" 0
    (Stack.counters b).Stack.delivered

let test_garp_corrects_moved_neighbour () =
  let e, a, b, _, db = two_ns () in
  Stack.add_addr b db (ip "192.168.1.3") (cidr "192.168.1.0/24");
  let _s = Stack.Udp.bind b ~port:53 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  for _ = 1 to 3 do
    send_one c (ip "192.168.1.2");
    send_one c (ip "192.168.1.3");
    Engine.run e
  done;
  (* The peer NIC is replaced: same addresses, new MAC, and only .2 is
     re-announced by a burst of gratuitous ARPs. *)
  db.Dev.mac <- Mac.of_int 0xbb;
  for _ = 1 to 5 do
    Stack.garp b db (ip "192.168.1.2")
  done;
  Engine.run e;
  Alcotest.(check bool) "announced neighbour moved" true
    (List.assoc (ip "192.168.1.2") (Stack.arp_cache a) = Mac.of_int 0xbb);
  (* .3's entry is stale until it expires: its packet dies at the peer's
     L2 filter.  The announced .2 reaches the new MAC. *)
  send_one c (ip "192.168.1.3");
  Engine.run e;
  send_one c (ip "192.168.1.2");
  Engine.run e;
  Alcotest.(check int) "6 before the move, 1 after" 7
    (Stack.counters b).Stack.delivered

(* ------------------------------------------------------------------ *)
(* Reflector (Hostlo) egress: whether localhost traffic is delivered in
   the sender's own fraction or reflected to its peers depends on the
   live socket tables. *)

(* Two pod namespaces multiplexed on one Hostlo loopback tap, wired as
   the VMM does but without the VM layer: the endpoints share the tap's
   MAC. *)
let reflector_world () =
  let e = Engine.create () in
  let tap =
    Tap.create e ~name:"hlo" ~mode:Tap.Loopback ~hop:(Hop.free e)
      ~mac:(Mac.of_int 0x42) ()
  in
  let mk name =
    let ns =
      Stack.create e ~name ~costs:(cheap_costs e) ~with_loopback:false ()
    in
    let q = Tap.add_queue tap ~owner:name in
    let dev =
      Dev.create ~name:(name ^ ":hlo0") ~mac:(Tap.mac tap) ~l2:Dev.Reflector ()
    in
    Dev.set_tx dev (fun f -> Tap.queue_write q f);
    Tap.queue_set_backend q (fun f -> Dev.deliver dev f);
    Stack.attach ns dev;
    Stack.add_addr ns dev Ipv4.localhost (cidr "127.0.0.0/8");
    ns
  in
  (e, mk "pa", mk "pb")

let test_reflector_socket_transition () =
  let e, a, b = reflector_world () in
  let b_got = ref 0 and a_got = ref 0 in
  let _sb =
    Stack.Udp.bind b ~port:53 (fun _ ~src:_ ~src_port:_ _ -> incr b_got)
  in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let burst () =
    for _ = 1 to 3 do
      send_one c Ipv4.localhost
    done;
    Engine.run e
  in
  burst ();
  Alcotest.(check int) "reflected to the peer while a has no server" 3 !b_got;
  (* A server appears in the sender's own fraction: localhost is local. *)
  let sa =
    Stack.Udp.bind a ~port:53 (fun _ ~src:_ ~src_port:_ _ -> incr a_got)
  in
  burst ();
  Alcotest.(check int) "local server captures localhost" 3 !a_got;
  Alcotest.(check int) "peer no longer sees the flow" 3 !b_got;
  Stack.Udp.close sa;
  burst ();
  Alcotest.(check int) "reflection resumes after close" 6 !b_got;
  Alcotest.(check int) "local server is gone" 3 !a_got


let test_udp_bind_conflicts () =
  let e = Engine.create () in
  let a = Stack.create e ~name:"x" ~costs:(cheap_costs e) () in
  let _s = Stack.Udp.bind a ~port:5000 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Alcotest.check_raises "port busy"
    (Failure "Stack.Udp.bind: port 5000 busy in x") (fun () ->
      ignore (Stack.Udp.bind a ~port:5000 (fun _ ~src:_ ~src_port:_ _ -> ())));
  let eph1 = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let eph2 = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Alcotest.(check bool) "distinct ephemerals" true
    (Stack.Udp.port eph1 <> Stack.Udp.port eph2);
  Stack.Udp.close eph1;
  Alcotest.(check bool) "ephemeral range" true (Stack.Udp.port eph2 >= 49152)

let test_tcp_rst_on_closed_port () =
  let e, a, b, _, _ = two_ns () in
  let c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:7777
      ~on_established:(fun _ -> ())
      ()
  in
  Engine.run e;
  Alcotest.(check bool) "connection reset" true (Stack.Tcp.is_closed c);
  Alcotest.(check int) "b sent a RST" 1 (Stack.counters b).Stack.rst_sent

type Payload.app_msg += Tag of int

(* A message's framing is its end offset in the stream, so every send
   must add bytes: a size of 0 or below is refused, and the stream and
   its message order stay as if it had never been made. *)
let test_tcp_send_rejects_empty () =
  let e, a, b, _, _ = two_ns () in
  let tags = ref [] in
  Stack.Tcp.listen b ~port:80 ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
          List.iter (function Tag t -> tags := t :: !tags | _ -> ()) msgs));
  let _c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun conn ->
        List.iter
          (fun (size, tag) ->
            let send () = Stack.Tcp.send conn ~size ~msg:(Tag tag) () in
            if size > 0 then
              Alcotest.(check bool) (Printf.sprintf "send %d" size) true
                (send ())
            else
              Alcotest.check_raises (Printf.sprintf "send %d" size)
                (Invalid_argument "Stack.Tcp.send: size must be > 0")
                (fun () -> ignore (send () : bool)))
          [ (100, 1); (0, 2); (100, 3); (-50, 4); (100, 5) ])
      ()
  in
  Engine.run e;
  Alcotest.(check (list int)) "tags in send order" [ 1; 3; 5 ] (List.rev !tags)

let test_tcp_backpressure_and_writable () =
  let e, a, b, _, _ = two_ns () in
  let received = ref 0 in
  Stack.Tcp.listen b ~port:80 ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs:_ ->
          received := !received + bytes));
  let writable_fired = ref false in
  let sent = ref 0 in
  let _c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun conn ->
        let limit = Stack.Tcp.sndbuf_limit conn in
        (* Fill the buffer past its limit: the last send must fail. *)
        Alcotest.(check bool) "first send fits" true
          (Stack.Tcp.send conn ~size:limit ());
        sent := limit;
        Alcotest.(check bool) "overflow send rejected" false
          (Stack.Tcp.send conn ~size:1 ());
        Stack.Tcp.set_on_writable conn (fun () ->
            writable_fired := true;
            Alcotest.(check bool) "accepted after drain" true
              (Stack.Tcp.send conn ~size:1000 ());
            sent := !sent + 1000))
      ()
  in
  Engine.run e;
  Alcotest.(check bool) "writable callback fired" true !writable_fired;
  Alcotest.(check int) "all bytes delivered" !sent !received

let test_tcp_retransmit_recovers_from_outage () =
  let e, a, b, da, _ = two_ns () in
  let received = ref 0 in
  Stack.Tcp.listen b ~port:80 ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs:_ ->
          received := !received + bytes));
  let c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun _ -> ())
      ()
  in
  Engine.run e;
  Alcotest.(check bool) "established" true (Stack.Tcp.is_established c);
  (* Yank the client device, send during the outage (all segments are
     lost at the device), then restore it: the RTO must recover. *)
  da.Dev.up <- false;
  ignore (Stack.Tcp.send c ~size:40_000 ());
  Engine.run ~until:(Engine.now e + Time.ms 120) e;
  Alcotest.(check int) "nothing delivered during outage" 0 !received;
  da.Dev.up <- true;
  Engine.run ~until:(Engine.now e + Time.sec 60) e;
  Alcotest.(check int) "transfer completes despite outage" 40_000 !received;
  Alcotest.(check bool) "retransmissions happened" true
    (Stack.Tcp.retransmits c > 0)

(* Random receive-side loss on a device: each frame it receives is
   dropped with probability [loss] and counted in its [drops], the way a
   [Corrupt_burst] fault drops frames on a VM's NICs. *)
let set_loss d ~rng loss =
  Dev.set_corrupt d (Some (fun _ -> Prng.float rng < loss))

let test_arp_retry_under_total_loss () =
  let e, a, b, _, db = two_ns () in
  set_loss db ~rng:(Prng.create 5L) 1.0;
  let got = ref 0 in
  let _s = Stack.Udp.bind b ~port:9 (fun _ ~src:_ ~src_port:_ _ -> incr got) in
  let c = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  for _ = 1 to 10 do
    Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:9 (Payload.raw 16)
  done;
  Engine.run ~until:(Time.sec 10) e;
  Alcotest.(check int) "nothing through at 100% loss" 0 !got;
  (* The ARP probe and its retries are the frames the receiver dropped;
     the 10 datagrams died queued behind the unresolved neighbour. *)
  Alcotest.(check bool) "ARP probes + retries counted" true
    (db.Dev.stats.Dev.drops >= 3);
  Alcotest.(check int) "queued datagrams failed with the neighbour" 10
    (Stack.counters a).Stack.dropped_no_route;
  Dev.set_corrupt db None;
  Stack.Udp.sendto c ~dst:(ip "192.168.1.2") ~dst_port:9 (Payload.raw 16);
  Engine.run e;
  Alcotest.(check int) "flows again once the loss clears" 1 !got

let test_tcp_close_sequence () =
  let e, a, b, _, _ = two_ns () in
  let server_conn = ref None in
  Stack.Tcp.listen b ~port:80 ~on_accept:(fun conn -> server_conn := Some conn);
  let c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun _ -> ())
      ()
  in
  Engine.run e;
  Alcotest.(check bool) "established" true (Stack.Tcp.is_established c);
  Stack.Tcp.close c;
  Engine.run e;
  Alcotest.(check bool) "active side closed" true (Stack.Tcp.is_closed c);
  Alcotest.(check bool) "passive side closed" true
    (match !server_conn with Some sc -> Stack.Tcp.is_closed sc | None -> false)

let test_tcp_endpoints () =
  let e, a, _, _, _ = two_ns () in
  let c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun _ -> ())
      ()
  in
  ignore e;
  let lip, lport = Stack.Tcp.local_endpoint c in
  let rip, rport = Stack.Tcp.remote_endpoint c in
  Alcotest.(check string) "local ip from route" "192.168.1.1" (Ipv4.to_string lip);
  Alcotest.(check bool) "ephemeral local port" true (lport >= 49152);
  Alcotest.(check string) "remote" "192.168.1.2" (Ipv4.to_string rip);
  Alcotest.(check int) "remote port" 80 rport

let test_ping_rtt_accounts_hops () =
  let e, a, _, _, _ = two_ns () in
  let rtt = ref 0 in
  Stack.ping a ~dst:(ip "192.168.1.2") ~on_reply:(fun ~rtt_ns -> rtt := rtt_ns);
  Engine.run e;
  Alcotest.(check bool) "reply came" true (!rtt > 0);
  (* Costed hops only: tx(100) rx(100) tx-reply(100) rx(100) + icmp path
     costs; must be well under a millisecond with the cheap model. *)
  Alcotest.(check bool) "cheap-model rtt < 5us" true (!rtt < 5_000)

(* Route.lookup on a stack's own table: longest prefix first, and the
   most recent of equal prefixes. *)

let route_stack () =
  let e = Engine.create () in
  let a = Stack.create e ~name:"r" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let d1, _ =
    Veth.pair ~a_name:"d1" ~a_mac:(Mac.of_int 1) ~b_name:"x1"
      ~b_mac:(Mac.of_int 2) ~ab_hop:hop ~ba_hop:hop ()
  in
  let d2, _ =
    Veth.pair ~a_name:"d2" ~a_mac:(Mac.of_int 3) ~b_name:"x2"
      ~b_mac:(Mac.of_int 4) ~ab_hop:hop ~ba_hop:hop ()
  in
  (Stack.routes a, d1, d2)

let test_route_longest_prefix () =
  let rt, d1, d2 = route_stack () in
  Route.add rt ~dst:(cidr "10.0.0.0/8") ~dev:d1 ();
  Route.add rt ~dst:(cidr "10.1.0.0/16") ~dev:d2 ();
  Route.add rt ~dst:(cidr "10.1.2.0/24") ~dev:d1 ();
  let dev_of addr =
    match Route.lookup rt (ip addr) with
    | en -> en.Route.dev.Dev.name
    | exception Not_found -> "none"
  in
  Alcotest.(check string) "/24 beats /16 and /8" "d1" (dev_of "10.1.2.3");
  Alcotest.(check string) "/16 beats /8" "d2" (dev_of "10.1.9.9");
  Alcotest.(check string) "/8 catches the rest" "d1" (dev_of "10.200.0.1");
  Alcotest.(check string) "no match" "none" (dev_of "172.16.0.1")

let test_route_most_recent_wins () =
  let rt, d1, d2 = route_stack () in
  Route.add rt ~dst:(cidr "10.0.0.0/8") ~dev:d1 ();
  Route.add rt ~dst:(cidr "10.0.0.0/8") ~dev:d2 ();
  match Route.lookup rt (ip "10.1.1.1") with
  | en -> Alcotest.(check string) "most recent of equal prefixes" "d2"
            en.Route.dev.Dev.name
  | exception Not_found -> Alcotest.fail "expected a route"

(* Exact allocation gate for the packet path.  Minor words are a
   deterministic work counter (same seed, same events, same allocations),
   so the bound holds on any host; it is pinned to OCaml 5.1.1 and to
   each build profile, whose compiler, inlining and runtime decide the
   block sizes (the dev profile compiles modules -opaque).  The nested-NAT UDP_RR transaction crosses
   bridge, netfilter, conntrack and virtio on both ends, so every
   per-hop allocation shows here.  The count was 313.3
   words per transaction when the bound was set (about 1 % headroom;
   321.4 under dev, bound 325; 389.0 before packet
   classification stopped allocating); raise it only together with the
   change that needs the words.

   The same run is repeated at the CLI's collection levels.  Tracing
   and metrics must be free: the same events and the same words per
   transaction as with collection off, and the trace ring must really
   have recorded.  Provenance sampled 1/16 gets its own bound (338.0
   words when set; 346.1 under dev, bound 350).  Full
   provenance is not gated. *)
let minor_words_per_tx_bound = Helpers.per_profile ~release:317.0 ~dev:325.0
let sampled_provenance_words_bound = Helpers.per_profile ~release:342.0 ~dev:350.0

module Obs = Nest_experiments.Exp_util.Obs

(* Words and engine events per transaction of 100 ms of 64 B UDP_RR
   after a 50 ms warm-up, the testbed's tracer and, when [profile], the
   measured run's allocation ledger as (label, words per transaction),
   at the collection level [Obs] is configured to. *)
let udp_rr_cost ?(profile = false) () =
  let open Nest_workloads in
  let tb, site =
    Nest_experiments.Exp_util.deploy_single_sync ~seed:1L ~mode:`Nat
      ~port:12865 ()
  in
  let ep = App.of_single tb site in
  let engine = tb.Nestfusion.Testbed.engine in
  ignore
    (Netperf.udp_rr tb ep ~msg_size:64 ~warmup:0 ~duration:(Time.ms 50) ()
      : Netperf.rr_result);
  if profile then Engine.enable_profiling engine;
  let w0 = Gc.minor_words () and e0 = Engine.events_processed engine in
  let r =
    Netperf.udp_rr tb ep ~msg_size:64 ~warmup:(Time.ms 1)
      ~duration:(Time.ms 100) ()
  in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_processed engine - e0 in
  let tx = r.Netperf.transactions in
  Alcotest.(check bool) "transactions ran" true (tx > 1000);
  let per_tx v = v /. float_of_int tx in
  let ledger =
    List.map (fun (label, _, w) -> (label, per_tx w))
      (Engine.alloc_profile engine)
  in
  (per_tx words, per_tx (float_of_int events), Engine.tracer engine, ledger)

let with_collection ~trace ~provenance ~prov_sample f =
  Obs.configure ~trace ~metrics:trace ~provenance ~prov_sample ();
  Fun.protect f ~finally:(fun () ->
      Obs.configure ~trace:false ~metrics:false ~provenance:false
        ~prov_sample:1 ();
      Obs.discard ())

let test_udp_rr_minor_words () =
  let off_words, off_events, _, _ = udp_rr_cost () in
  if off_words > minor_words_per_tx_bound then
    Alcotest.failf "%.1f minor words per transaction, bound %.0f" off_words
      minor_words_per_tx_bound;
  let tm_words, tm_events, tracer, _ =
    with_collection ~trace:true ~provenance:false ~prov_sample:1 udp_rr_cost
  in
  (match tracer with
  | Some tr ->
    Alcotest.(check bool) "trace+metrics: the ring recorded events" true
      (Nest_sim.Trace.recorded tr > 0)
  | None -> Alcotest.fail "trace+metrics: no tracer was installed");
  Alcotest.(check (float 0.0)) "trace+metrics: events per transaction"
    off_events tm_events;
  Alcotest.(check (float 0.5)) "trace+metrics: minor words per transaction"
    off_words tm_words;
  let sampled_words, _, _, _ =
    with_collection ~trace:true ~provenance:true ~prov_sample:16 udp_rr_cost
  in
  if sampled_words > sampled_provenance_words_bound then
    Alcotest.failf
      "provenance 1/16: %.1f minor words per transaction, bound %.0f"
      sampled_words sampled_provenance_words_bound

(* The allocation ledger on the same run: the words per transaction of
   the two softirq contexts of the nested-NAT path, pinned (exact, like
   the gate above), and the rows summing to the unprofiled total, so the
   ledger attributes every word the run allocates and adds none.
   Under dev both rows read 100.00.  Profiling with the default clock
   allocates nothing itself: the profiled run's words per event equal
   the unprofiled run's exactly (4 more when each clock read boxed its
   float). *)
let vm1_softirq_words_per_tx = Helpers.per_profile ~release:95.96 ~dev:100.00
let host_softirq_words_per_tx = Helpers.per_profile ~release:100.00 ~dev:100.00

let test_udp_rr_alloc_ledger () =
  let off_words, off_events, _, _ = udp_rr_cost () in
  let prof_words, prof_events, _, ledger = udp_rr_cost ~profile:true () in
  Alcotest.(check (float 0.0)) "profiling adds no words per event"
    (off_words /. off_events) (prof_words /. prof_events);
  let row label =
    match List.assoc_opt label ledger with
    | Some w -> w
    | None -> Alcotest.failf "no ledger row for %s" label
  in
  Alcotest.(check (float 0.05)) "vm1:softirq words per transaction"
    vm1_softirq_words_per_tx (row "vm1:softirq");
  Alcotest.(check (float 0.05)) "host:softirq words per transaction"
    host_softirq_words_per_tx (row "host:softirq");
  let sum = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 ledger in
  Alcotest.(check (float 0.5)) "ledger rows sum to the total" off_words sum

(* The same kind of gate on the path UDP_RR never takes: memcached over
   a Docker Overlay pod pair (memtier's 4 x 50 TCP connections through
   veth, VXLAN encap/decap and the underlay's bridge and virtio), 50 ms
   after a 20 ms warm-up.  Words per completed request are exact; the
   count was 449.6 when the bound was set (about 1 % headroom; 458.8
   under dev, bound 463; 472.9 before packet classification stopped
   allocating). *)
let overlay_words_per_request_bound = Helpers.per_profile ~release:454.0 ~dev:463.0

(* Words and engine events per completed request of that run, and, when
   [profile], its allocation ledger as (label, events, words per
   request). *)
let memcached_overlay_cost ?(profile = false) () =
  let open Nest_workloads in
  let tb, site =
    Nest_experiments.Exp_util.deploy_pair_sync ~seed:1L ~mode:`Overlay
      ~port:11211 ()
  in
  let ep = App.of_pair site in
  let engine = tb.Nestfusion.Testbed.engine in
  ignore
    (Memcached.run tb ep ~warmup:0 ~duration:(Time.ms 20) () : Memcached.result);
  if profile then Engine.enable_profiling engine;
  let w0 = Gc.minor_words () and e0 = Engine.events_processed engine in
  let r = Memcached.run tb ep ~warmup:(Time.ms 5) ~duration:(Time.ms 50) () in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.events_processed engine - e0 in
  let requests = Nest_sim.Stats.count r.Memcached.latency in
  Alcotest.(check bool) "requests ran" true (requests > 1000);
  let per_request v = v /. float_of_int requests in
  let ledger =
    List.map (fun (label, n, w) -> (label, n, per_request w))
      (Engine.alloc_profile engine)
  in
  (per_request words, events, ledger)

let test_memcached_overlay_minor_words () =
  let per_request, _, _ = memcached_overlay_cost () in
  if per_request > overlay_words_per_request_bound then
    Alcotest.failf "%.1f minor words per request, bound %.0f" per_request
      overlay_words_per_request_bound

(* Every event of that run is labeled: the TCP wake-up, delayed-ACK and
   RTO timers, the UDP wake-up and the virtio kick and interrupt carry
   their namespace's or NIC's label, so no row reads "<unlabeled>"
   (82.6 of 468 words per request did before).  Profiling moves no
   event: the rows hold every event of the unprofiled run.  Their words
   are the events' own, so they stay below the run's total, which also
   holds [Memcached.run]'s connection setup (about 4.7 words per
   request). *)
let test_memcached_overlay_ledger () =
  let off_words, off_events, _ = memcached_overlay_cost () in
  let _, _, ledger = memcached_overlay_cost ~profile:true () in
  List.iter
    (fun (label, _, w) ->
      if String.equal label "<unlabeled>" then
        Alcotest.failf "<unlabeled> holds %.1f words per request" w)
    ledger;
  let events = List.fold_left (fun acc (_, n, _) -> acc + n) 0 ledger in
  Alcotest.(check int) "the rows hold every event" off_events events;
  let words = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 ledger in
  if not (words <= off_words && words > off_words -. 6.0) then
    Alcotest.failf "ledger rows hold %.1f words per request, the run %.1f"
      words off_words

(* The first TCP_STREAM gate: 64 B sends on the seed-1 testbed, one
   100 ms run of which the first 50 ms are warm-up (the handshake and
   slow start included), in minor words per accepted send.  Exact, like
   the gates above: the counts were 10.17 (NAT) and 7.39 (BrFusion) when
   the bounds were set, about 1 % below them (10.34 and 7.56 under dev,
   bounds 10.44 and 7.63; 13.18 and 8.64 before packet classification
   stopped allocating). *)
let stream_words_per_send_bounds =
  [ ("nat", `Nat, Helpers.per_profile ~release:10.27 ~dev:10.44);
    ("brfusion", `Brfusion, Helpers.per_profile ~release:7.46 ~dev:7.63) ]

let test_tcp_stream_minor_words () =
  let open Nest_workloads in
  List.iter
    (fun (name, mode, bound) ->
      let tb, site =
        Nest_experiments.Exp_util.deploy_single_sync ~seed:1L ~mode
          ~port:12866 ()
      in
      let ep = App.of_single tb site in
      let w0 = Gc.minor_words () in
      let r =
        Netperf.tcp_stream tb ep ~msg_size:64 ~warmup:(Time.ms 50)
          ~duration:(Time.ms 50) ()
      in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool) (name ^ ": sends ran") true
        (r.Netperf.sends > 10_000);
      let per_send = words /. float_of_int r.Netperf.sends in
      if per_send > bound then
        Alcotest.failf "%s: %.1f minor words per send, bound %.1f" name
          per_send bound)
    stream_words_per_send_bounds

(* Engine events per accepted send on the same 64 B TCP_STREAM runs,
   pinned exactly (the counts do not depend on the build profile).  The
   application's per-call work is charged to its context without an
   event (nothing waits on its completion): with one event per send and
   per receive, NAT ran 2.94 events per send and BrFusion 2.68. *)
let stream_events_and_sends =
  [ ("nat", `Nat, (360_942, 190_313)); ("brfusion", `Brfusion, (338_214, 206_993)) ]

let test_tcp_stream_events_per_send () =
  let open Nest_workloads in
  List.iter
    (fun (name, mode, expected) ->
      let tb, site =
        Nest_experiments.Exp_util.deploy_single_sync ~seed:1L ~mode
          ~port:12866 ()
      in
      let ep = App.of_single tb site in
      let engine = tb.Nestfusion.Testbed.engine in
      let e0 = Engine.events_processed engine in
      let r =
        Netperf.tcp_stream tb ep ~msg_size:64 ~warmup:(Time.ms 50)
          ~duration:(Time.ms 50) ()
      in
      let events = Engine.events_processed engine - e0 in
      Alcotest.(check (pair int int))
        (name ^ ": (events, sends)") expected (events, r.Netperf.sends))
    stream_events_and_sends

let () =
  Alcotest.run "stack"
    [ ( "ip",
        [ Alcotest.test_case "arp" `Quick test_arp_resolution;
          Alcotest.test_case "loopback" `Quick test_local_delivery_over_lo;
          Alcotest.test_case "no socket" `Quick test_no_socket_counted;
          Alcotest.test_case "forwarding off" `Quick test_forwarding_disabled_drops;
          Alcotest.test_case "firewall" `Quick test_firewall_drop_counted;
          Alcotest.test_case "ping" `Quick test_ping_rtt_accounts_hops;
          Alcotest.test_case "re-ARP after flush" `Quick test_rearp_after_flush;
          Alcotest.test_case "rule added mid-flow" `Quick
            test_rule_added_mid_flow;
          Alcotest.test_case "local DNAT routes the translated destination"
            `Quick test_local_dnat_routes_translated;
          Alcotest.test_case "GARP corrects moved neighbour" `Quick
            test_garp_corrects_moved_neighbour;
          Alcotest.test_case "ARP retry under total loss" `Quick
            test_arp_retry_under_total_loss ] );
      ( "route",
        [ Alcotest.test_case "longest prefix" `Quick test_route_longest_prefix;
          Alcotest.test_case "most recent wins" `Quick
            test_route_most_recent_wins ] );
      ( "reflector",
        [ Alcotest.test_case "socket transition" `Quick
            test_reflector_socket_transition ] );
      ( "udp",
        [ Alcotest.test_case "bind conflicts" `Quick test_udp_bind_conflicts ] );
      ( "tcp",
        [ Alcotest.test_case "rst on closed port" `Quick test_tcp_rst_on_closed_port;
          Alcotest.test_case "backpressure" `Quick test_tcp_backpressure_and_writable;
          Alcotest.test_case "send rejects size <= 0" `Quick
            test_tcp_send_rejects_empty;
          Alcotest.test_case "retransmit outage" `Quick
            test_tcp_retransmit_recovers_from_outage;
          Alcotest.test_case "close sequence" `Quick test_tcp_close_sequence;
          Alcotest.test_case "endpoints" `Quick test_tcp_endpoints ] );
      ( "alloc",
        [ Alcotest.test_case "udp_rr minor words per transaction" `Quick
            test_udp_rr_minor_words;
          Alcotest.test_case "udp_rr allocation ledger" `Quick
            test_udp_rr_alloc_ledger;
          Alcotest.test_case "memcached overlay minor words per request"
            `Quick test_memcached_overlay_minor_words;
          Alcotest.test_case "64 B tcp_stream minor words per send" `Quick
            test_tcp_stream_minor_words;
          Alcotest.test_case "64 B tcp_stream events per send" `Quick
            test_tcp_stream_events_per_send;
          Alcotest.test_case "memcached overlay ledger has no unlabeled row"
            `Quick test_memcached_overlay_ledger ] ) ]
