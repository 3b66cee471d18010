(* Integration tests of the deployment modes: every mode must deliver
   traffic end-to-end, and the recorded device paths must match Fig. 1 of
   the paper (NAT keeps the in-VM bridge; BrFusion removes it; Hostlo
   reflects through the loopback tap; ...). *)

open Nest_net
open Nestfusion
module Time = Nest_sim.Time

let until tb t = Testbed.run_until tb t

let deploy_single_sync ~mode =
  let tb = Testbed.create ~num_vms:1 () in
  let site = ref None in
  Deploy.deploy_single tb ~mode ~name:"pod" ~entity:"srv" ~port:7000
    ~k:(fun s -> site := Some s);
  until tb (Time.sec 1);
  match !site with
  | Some s -> (tb, s)
  | None -> Alcotest.failf "deploy_single %s never completed" (Modes.single_to_string mode)

let deploy_pair_sync ~mode =
  let tb = Testbed.create ~num_vms:2 () in
  let site = ref None in
  Deploy.deploy_pair tb ~mode ~name:"pod" ~a_entity:"cli" ~b_entity:"srv"
    ~port:7000 ~k:(fun s -> site := Some s);
  until tb (Time.sec 1);
  match !site with
  | Some s -> (tb, s)
  | None -> Alcotest.failf "deploy_pair %s never completed" (Modes.pair_to_string mode)

let udp_echo_works ns_server ns_client ~addr ~port tb =
  let echoed = ref false in
  let server =
    Stack.Udp.bind ns_server ~port (fun s ~src:ip ~src_port:p payload ->
        Stack.Udp.sendto s ~dst:ip ~dst_port:p payload)
  in
  let client =
    Stack.Udp.bind ns_client ~port:0 (fun _ ~src:_ ~src_port:_ _ ->
        echoed := true)
  in
  Stack.Udp.sendto client ~dst:addr ~dst_port:port (Payload.raw 256);
  until tb (Time.sec 3);
  Stack.Udp.close server;
  Stack.Udp.close client;
  !echoed

(* --- single-server modes --- *)

let test_single_mode mode () =
  let tb, site = deploy_single_sync ~mode in
  Alcotest.(check bool)
    (Modes.single_to_string mode ^ " echo")
    true
    (udp_echo_works site.Deploy.site_ns tb.Testbed.client_ns
       ~addr:site.Deploy.site_addr ~port:site.Deploy.site_port tb)

(* Hop names of one warm UDP datagram's provenance record: the hops the
   measured copy took, branching off at every fan-out. *)
let probe_path tb ~src ~dst ~dst_addr ~port =
  let hops = ref None in
  Path_probe.udp_timed_path ~src ~dst ~dst_addr ~port
    ~k:(fun es ->
      hops := Some (List.map (fun e -> e.Nest_sim.Provenance.hop) es))
    ();
  until tb (Time.sec 2);
  match !hops with
  | Some h -> h
  | None -> Alcotest.fail "probe never delivered"

let path_of_single mode =
  let tb, site = deploy_single_sync ~mode in
  probe_path tb ~src:tb.Testbed.client_ns ~dst:site.Deploy.site_ns
    ~dst_addr:site.Deploy.site_addr ~port:site.Deploy.site_port

let test_path_nocont () =
  let hops = path_of_single `NoCont in
  (* client veth -> host bridge -> vm tap -> guest eth0; no docker0. *)
  Alcotest.(check bool)
    (Format.asprintf "passes host bridge %a" Path_probe.pp_hops hops)
    true
    (Helpers.contains_seq hops
       [ "virbr0"; "tap-vm1"; "vm1:eth0:virtio-rx" ]);
  Alcotest.(check bool) "no in-VM bridge" true
    (not (List.mem "vm1:docker0" hops))

let test_path_nat () =
  let hops = path_of_single `Nat in
  (* The duplicated layer: the guest's own rx, forward and docker0 bridge
     between the VM NIC and the pod veth. *)
  Alcotest.(check bool)
    (Format.asprintf "nested path %a" Path_probe.pp_hops hops)
    true
    (Helpers.contains_seq hops
       [ "virbr0"; "tap-vm1"; "vm1:eth0:virtio-rx"; "vm1:rx"; "vm1:fwd";
         "vm1:docker0"; "pod:rx" ])

let test_path_brfusion () =
  let hops = path_of_single `Brfusion in
  (* Host bridge straight into the pod's own NIC: the guest kernel never
     receives, forwards or bridges the packet. *)
  Alcotest.(check bool)
    (Format.asprintf "fused path %a" Path_probe.pp_hops hops)
    true
    (Helpers.contains_seq hops
       [ "virbr0"; "vm1:brf-pod-nd"; "vm1:brf-pod:virtio-rx"; "pod:rx" ]);
  List.iter
    (fun h ->
      Alcotest.(check bool) (h ^ " removed") false (List.mem h hops))
    [ "vm1:rx"; "vm1:fwd"; "vm1:docker0"; "vm1:eth0:virtio-rx" ]

(* --- pod-pair modes --- *)

let test_pair_mode mode () =
  let tb, site = deploy_pair_sync ~mode in
  Alcotest.(check bool)
    (Modes.pair_to_string mode ^ " echo")
    true
    (udp_echo_works site.Deploy.b_ns site.Deploy.a_ns ~addr:site.Deploy.b_addr
       ~port:site.Deploy.b_port tb)

let path_of_pair mode =
  let tb, site = deploy_pair_sync ~mode in
  probe_path tb ~src:site.Deploy.a_ns ~dst:site.Deploy.b_ns
    ~dst_addr:site.Deploy.b_addr ~port:site.Deploy.b_port

let test_path_hostlo () =
  let hops = path_of_pair `Hostlo in
  (* Endpoint in VM1 -> loopback tap -> endpoint in VM2; never the host
     bridge or any in-VM bridge.  The tap reflects the frame to the
     writer's own queue too, but that copy branches off the record: the
     path never shows a receive on vm1:hlo-pod-0. *)
  Alcotest.(check (list string))
    "hostlo path"
    [ "pod@vm1:tx"; "vm1:hlo-pod-0:virtio-tx"; "hostlo-pod";
      "vm2:hlo-pod-1:virtio-rx"; "pod@vm2:rx" ]
    hops

let test_path_overlay () =
  let hops = path_of_pair `Overlay in
  (* The VXLAN packet crosses the whole underlay between the two VTEPs:
     out through VM1's tap, across the host bridge, into VM2's tap. *)
  Alcotest.(check bool)
    (Format.asprintf "encap, underlay, decap %a" Path_probe.pp_hops hops)
    true
    (Helpers.contains_seq hops
       [ "vm1:pod-ov:encap"; "tap-vm1"; "virbr0"; "tap-vm2";
         "vm2:pod-ov:decap" ])

let test_hostlo_reflection_counts () =
  (* Every frame written to the loopback tap is reflected to all queues,
     including the writer's (§4.2): the writing fraction's own stack sees
     its frames back and silently drops them. *)
  let tb, site = deploy_pair_sync ~mode:`Hostlo in
  let before = (Stack.counters site.Deploy.a_ns).Stack.dropped_no_socket in
  Alcotest.(check bool) "hostlo echo sanity" true
    (udp_echo_works site.Deploy.b_ns site.Deploy.a_ns ~addr:site.Deploy.b_addr
       ~port:site.Deploy.b_port tb);
  Alcotest.(check bool) "self-reflections reached A's stack and were dropped"
    true
    ((Stack.counters site.Deploy.a_ns).Stack.dropped_no_socket > before)

let test_tcp_over_hostlo () =
  let tb, site = deploy_pair_sync ~mode:`Hostlo in
  let received = ref 0 in
  Stack.Tcp.listen site.Deploy.b_ns ~port:7000 ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs:_ ->
          received := !received + bytes));
  let c =
    Stack.Tcp.connect site.Deploy.a_ns ~dst:site.Deploy.b_addr ~port:7000
      ~on_established:(fun c ->
        ignore (Stack.Tcp.send c ~size:200_000 ()))
      ()
  in
  until tb (Time.sec 3);
  Alcotest.(check bool) "established over hostlo" true
    (Stack.Tcp.is_established c);
  Alcotest.(check int) "bulk transfer over hostlo" 200_000 !received;
  Alcotest.(check int) "no retransmits" 0 (Stack.Tcp.retransmits c)

let test_tcp_local_same_fraction () =
  (* Two processes in the same Hostlo fraction still talk over the
     endpoint locally. *)
  let tb, site = deploy_pair_sync ~mode:`Hostlo in
  let got = ref 0 in
  Stack.Tcp.listen site.Deploy.a_ns ~port:9100 ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs:_ -> got := !got + bytes));
  let _c =
    Stack.Tcp.connect site.Deploy.a_ns ~dst:Ipv4.localhost ~port:9100
      ~on_established:(fun c -> ignore (Stack.Tcp.send c ~size:5_000 ()))
      ()
  in
  until tb (Time.sec 2);
  Alcotest.(check int) "local delivery within fraction" 5_000 !got

let single_cases =
  List.map
    (fun m ->
      Alcotest.test_case
        ("echo " ^ Modes.single_to_string m)
        `Quick (test_single_mode m))
    Modes.all_single

let pair_cases =
  List.map
    (fun m ->
      Alcotest.test_case
        ("echo " ^ Modes.pair_to_string m)
        `Quick (test_pair_mode m))
    Modes.all_pair

let () =
  Alcotest.run "modes"
    [ ("single", single_cases);
      ("pair", pair_cases);
      ( "paths",
        [ Alcotest.test_case "NoCont path" `Quick test_path_nocont;
          Alcotest.test_case "NAT nested path" `Quick test_path_nat;
          Alcotest.test_case "BrFusion fused path" `Quick test_path_brfusion;
          Alcotest.test_case "Hostlo reflected path" `Quick test_path_hostlo;
          Alcotest.test_case "Overlay encap path" `Quick test_path_overlay ] );
      ( "hostlo-semantics",
        [ Alcotest.test_case "reflection sanity" `Quick
            test_hostlo_reflection_counts;
          Alcotest.test_case "tcp bulk over hostlo" `Quick test_tcp_over_hostlo;
          Alcotest.test_case "tcp local within fraction" `Quick
            test_tcp_local_same_fraction ] ) ]
