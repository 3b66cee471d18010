(* Direct VTEP tests: encapsulation, flooding to the peer list, and
   counters — below the CNI overlay plugin that normally drives it. *)

open Nest_net
module Engine = Nest_sim.Engine
module Exec = Nest_sim.Exec
module Time = Nest_sim.Time

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

(* Three underlay namespaces on one segment, each with a VTEP. *)
let world () =
  let e = Engine.create () in
  let mk i =
    let ns =
      Stack.create e ~name:(Printf.sprintf "u%d" i) ~costs:(cheap_costs e) ()
    in
    (ns, Ipv4.of_string (Printf.sprintf "10.5.0.%d" i))
  in
  let nodes = List.init 3 (fun i -> mk (i + 1)) in
  (* Full-mesh veths would do; simpler: one bridge in a fourth ns acting
     as the physical switch. *)
  let br_hop = Hop.free e in
  let br = Bridge.create e ~name:"switch" ~hop:br_hop ~self_mac:(Mac.of_int 0xff) in
  List.iteri
    (fun i (ns, addr) ->
      let a, b =
        Veth.pair
          ~a_name:(Printf.sprintf "u%d:eth0" (i + 1))
          ~a_mac:(Mac.of_int (0x10 + i))
          ~b_name:(Printf.sprintf "sw%d" i)
          ~b_mac:(Mac.of_int (0x20 + i))
          ~ab_hop:(Hop.free e) ~ba_hop:(Hop.free e) ()
      in
      Stack.attach ns a;
      Stack.add_addr ns a addr (cidr "10.5.0.0/24");
      Bridge.attach br b)
    nodes;
  (e, nodes)

let vtep ns =
  Vxlan.create ns ~name:(Stack.name ns ^ "-vtep") ~vni:88
    ~encap_hop:(Hop.free (Stack.engine ns))
    ~decap_hop:(Hop.free (Stack.engine ns))

(* Datagrams [vtep ns] decapsulated: its [hop.<name>.decap] metric. *)
let decaps ns =
  match
    Nest_sim.Metrics.find
      (Engine.metrics (Stack.engine ns))
      ("hop." ^ Stack.name ns ^ "-vtep.decap")
  with
  | Some (Nest_sim.Metrics.Counter n) -> n
  | _ -> Alcotest.fail "decap metric missing"

let overlay_frame ~src ~dst =
  Frame.make ~src ~dst
    (Frame.Ipv4_body
       (Packet.make ~src:(ip "10.99.0.1") ~dst:(ip "10.99.0.2")
          (Packet.Udp { src_port = 1000; dst_port = 2000; payload = Payload.raw 64 })))

let test_flood_unknown_unicast () =
  let e, nodes = world () in
  let (ns1, _) = List.nth nodes 0
  and (_, a2) = List.nth nodes 1
  and (_, a3) = List.nth nodes 2 in
  let v1 = vtep ns1 in
  Vxlan.add_remote v1 a2;
  Vxlan.add_remote v1 a3;
  (* Receivers on the other two nodes. *)
  let hits = Array.make 3 0 in
  List.iteri
    (fun i (ns, _) ->
      if i > 0 then begin
        let v = vtep ns in
        let sink = Dev.create ~name:"sink" ~mac:(Mac.of_int (0x50 + i)) () in
        ignore sink;
        Dev.set_rx (Vxlan.dev v) (fun _ -> hits.(i) <- hits.(i) + 1)
      end)
    nodes;
  (* Every frame floods to both remotes. *)
  Dev.transmit (Vxlan.dev v1)
    (overlay_frame ~src:(Mac.of_int 0xaa) ~dst:(Mac.of_int 0xbb));
  Engine.run e;
  Alcotest.(check int) "node2 got the flood" 1 hits.(1);
  Alcotest.(check int) "node3 got the flood" 1 hits.(2);
  Alcotest.(check int) "two encapsulations" 2 (Vxlan.encapsulated v1)

let test_decap_counter_and_inner_intact () =
  let e, nodes = world () in
  let (ns1, _) = List.nth nodes 0 and (ns2, a2) = List.nth nodes 1 in
  let v1 = vtep ns1 in
  let v2 = vtep ns2 in
  Vxlan.add_remote v1 a2;
  let inner_seen = ref None in
  Dev.set_rx (Vxlan.dev v2) (fun f -> inner_seen := Some f);
  Dev.transmit (Vxlan.dev v1)
    (overlay_frame ~src:(Mac.of_int 0xaa) ~dst:(Mac.of_int 0xbb));
  Engine.run e;
  (match !inner_seen with
  | None -> Alcotest.fail "inner frame lost"
  | Some f -> (
    Alcotest.(check bool) "inner MACs intact" true
      (Mac.equal f.Frame.src (Mac.of_int 0xaa)
      && Mac.equal f.Frame.dst (Mac.of_int 0xbb));
    match f.Frame.body with
    | Frame.Ipv4_body p ->
      Alcotest.(check string) "inner IP intact" "10.99.0.2"
        (Ipv4.to_string p.Packet.dst)
    | Frame.Arp_body _ -> Alcotest.fail "wrong inner body"));
  Alcotest.(check int) "decap counted" 1 (decaps ns2)

let test_no_remotes_drops_silently () =
  let e, nodes = world () in
  let (ns1, _) = List.nth nodes 0 in
  let v1 = vtep ns1 in
  Dev.transmit (Vxlan.dev v1)
    (overlay_frame ~src:(Mac.of_int 0xaa) ~dst:(Mac.of_int 0xbb));
  Engine.run e;
  Alcotest.(check int) "nothing encapsulated without peers" 0
    (Vxlan.encapsulated v1)

(* A peer VTEP pruned mid-flow (the overlay CNI's failover path): the
   flow floods only the surviving member instead of encapsulating into
   the void. *)
let test_remove_remote_redirects_flood () =
  let e, nodes = world () in
  let (ns1, _) = List.nth nodes 0
  and (_, a2) = List.nth nodes 1
  and (_, a3) = List.nth nodes 2 in
  let v1 = vtep ns1 in
  Vxlan.add_remote v1 a2;
  Vxlan.add_remote v1 a3;
  let hits = Array.make 3 0 in
  List.iteri
    (fun i (ns, _) ->
      if i > 0 then begin
        let v = vtep ns in
        Dev.set_rx (Vxlan.dev v) (fun _ -> hits.(i) <- hits.(i) + 1)
      end)
    nodes;
  let send () =
    Dev.transmit (Vxlan.dev v1)
      (overlay_frame ~src:(Mac.of_int 0xaa) ~dst:(Mac.of_int 0xbb));
    Engine.run e
  in
  for _ = 1 to 3 do
    send ()
  done;
  Alcotest.(check int) "node2 receiving" 3 hits.(1);
  Alcotest.(check int) "node3 receiving" 3 hits.(2);
  Vxlan.remove_remote v1 a3;
  for _ = 1 to 2 do
    send ()
  done;
  Alcotest.(check int) "dead VTEP gets nothing more" 3 hits.(2);
  Alcotest.(check int) "survivor still receives" 5 hits.(1);
  Alcotest.(check int) "one encapsulation per remote" 8
    (Vxlan.encapsulated v1)

(* A firewall rule lands in the underlay under a flowing tunnel: the next
   encapsulated datagram meets it. *)
let test_underlay_rule_drops_encap () =
  let e, nodes = world () in
  let (ns1, _) = List.nth nodes 0 and (ns3, a3) = List.nth nodes 2 in
  let v1 = vtep ns1 in
  Vxlan.add_remote v1 a3;
  let got = ref 0 in
  let v3 = vtep ns3 in
  Dev.set_rx (Vxlan.dev v3) (fun _ -> incr got);
  let send () =
    Dev.transmit (Vxlan.dev v1)
      (overlay_frame ~src:(Mac.of_int 0xaa) ~dst:(Mac.of_int 0xbb));
    Engine.run e
  in
  for _ = 1 to 3 do
    send ()
  done;
  Alcotest.(check int) "flowing through the underlay" 3 !got;
  Helpers.drop_from (Stack.nf ns1) ~hook:Netfilter.Output
    ~src_subnet:(cidr "10.5.0.0/24");
  send ();
  Alcotest.(check int) "new underlay rule drops the next datagram" 3 !got;
  Alcotest.(check int) "drop counted in the underlay" 1
    (Stack.counters ns1).Stack.dropped_filtered

let () =
  Alcotest.run "vxlan"
    [ ( "vtep",
        [ Alcotest.test_case "flood unknown" `Quick test_flood_unknown_unicast;
          Alcotest.test_case "decap intact" `Quick
            test_decap_counter_and_inner_intact;
          Alcotest.test_case "no remotes" `Quick test_no_remotes_drops_silently;
          Alcotest.test_case "remove_remote redirects to survivors" `Quick
            test_remove_remote_redirects_flood;
          Alcotest.test_case "underlay rule drops encap" `Quick
            test_underlay_rule_drops_encap ] ) ]
