(* End-to-end smoke tests over the full substrate: client namespace on the
   host, veth to the host, host bridge + NAT, virtio/vhost into a VM. *)

open Nest_net
module Engine = Nest_sim.Engine

let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

type world = {
  engine : Engine.t;
  host : Nest_virt.Host.t;
  vmm : Nest_virt.Vmm.t;
  client_ns : Stack.ns;
  vm : Nest_virt.Vm.t;
}

let make_world () =
  let engine = Engine.create () in
  let acct = Nest_sim.Cpu_account.create () in
  let host =
    Nest_virt.Host.create engine acct ~cpus:12 ~name:"host" ()
  in
  let _br =
    Nest_virt.Host.add_bridge host ~name:"virbr0" ~ip:(ip "10.0.0.1")
      ~subnet:(cidr "10.0.0.0/24")
  in
  let vmm = Nest_virt.Vmm.create host in
  let client_ns =
    Nest_virt.Host.new_process_ns host ~name:"client" ~entity:"client"
  in
  Nest_virt.Host.connect_ns_to_host host client_ns
    ~host_ip:(ip "192.168.100.1") ~ns_ip:(ip "192.168.100.2")
    ~subnet:(cidr "192.168.100.0/24");
  Nest_virt.Host.masquerade host ~src_subnet:(cidr "192.168.100.0/24")
    ~nat_ip:(ip "10.0.0.1");
  (* Route from the host toward the client subnet exists via the veth
     (connected route); VMs reply to the NAT address so nothing more is
     needed on their side. *)
  let vm =
    Nest_virt.Vmm.create_vm vmm ~name:"vm1" ~vcpus:5 ~mem_mb:4096
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2")
  in
  { engine; host; vmm; client_ns; vm }

let run_until w t = Engine.run ~until:t w.engine

let test_ping () =
  let w = make_world () in
  let got = ref None in
  Stack.ping w.client_ns ~dst:(ip "10.0.0.2") ~on_reply:(fun ~rtt_ns ->
      got := Some rtt_ns);
  run_until w (Nest_sim.Time.ms 100);
  match !got with
  | None -> Alcotest.fail "no ping reply"
  | Some rtt ->
    Alcotest.(check bool) "rtt positive" true (rtt > 0);
    Alcotest.(check bool) "rtt sane (< 1ms)" true (rtt < Nest_sim.Time.ms 1)

let test_udp_round_trip () =
  let w = make_world () in
  let vm_ns = Nest_virt.Vm.ns w.vm in
  let echoed = ref 0 in
  let _server =
    Stack.Udp.bind vm_ns ~port:7 (fun s ~src:src_ip ~src_port payload ->
        Stack.Udp.sendto s ~dst:src_ip ~dst_port:src_port payload)
  in
  let client =
    Stack.Udp.bind w.client_ns ~port:0 (fun _ ~src:_ ~src_port:_ _ ->
        incr echoed)
  in
  Stack.Udp.sendto client ~dst:(ip "10.0.0.2") ~dst_port:7
    (Payload.raw 128);
  run_until w (Nest_sim.Time.ms 100);
  Alcotest.(check int) "echo received" 1 !echoed

let test_tcp_transfer () =
  let w = make_world () in
  let vm_ns = Nest_virt.Vm.ns w.vm in
  let server_got = ref 0 in
  let server_msgs = ref [] in
  Stack.Tcp.listen vm_ns ~port:5201 ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs ->
          server_got := !server_got + bytes;
          server_msgs := !server_msgs @ msgs));
  let c =
    Stack.Tcp.connect w.client_ns ~dst:(ip "10.0.0.2") ~port:5201
      ~on_established:(fun c ->
        ignore
          (Stack.Tcp.send c ~size:100_000
             ~msg:(Payload.Opaque "first-100k") ());
        ignore
          (Stack.Tcp.send c ~size:50_000 ~msg:(Payload.Opaque "next-50k") ()))
      ()
  in
  run_until w (Nest_sim.Time.sec 2);
  Alcotest.(check bool) "established" true (Stack.Tcp.is_established c);
  Alcotest.(check int) "all bytes received" 150_000 !server_got;
  Alcotest.(check int) "acked back to sender" 150_000 (Stack.Tcp.bytes_acked c);
  let tags =
    List.filter_map
      (function Payload.Opaque s -> Some s | _ -> None)
      !server_msgs
  in
  Alcotest.(check (list string)) "message framing preserved"
    [ "first-100k"; "next-50k" ] tags;
  Alcotest.(check int) "no retransmits" 0 (Stack.Tcp.retransmits c)

let test_nat_hides_client () =
  let w = make_world () in
  let vm_ns = Nest_virt.Vm.ns w.vm in
  let seen_src = ref None in
  let _server =
    Stack.Udp.bind vm_ns ~port:9 (fun _ ~src ~src_port:_ _ ->
        seen_src := Some src)
  in
  let client =
    Stack.Udp.bind w.client_ns ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ())
  in
  Stack.Udp.sendto client ~dst:(ip "10.0.0.2") ~dst_port:9 (Payload.raw 32);
  run_until w (Nest_sim.Time.ms 100);
  match !seen_src with
  | None -> Alcotest.fail "no datagram at server"
  | Some src_ip ->
    Alcotest.(check string) "source masqueraded to host bridge address"
      "10.0.0.1" (Ipv4.to_string src_ip)

let test_hotplug_nic () =
  let w = make_world () in
  let plugged = ref None in
  Nest_virt.Vmm.hotplug_nic w.vmm ~vm:w.vm ~bridge:"virbr0" ~id:"pod-nic"
    ~k:(fun dev -> plugged := Some dev);
  run_until w (Nest_sim.Time.ms 200);
  match !plugged with
  | None -> Alcotest.fail "hot-plugged NIC never became guest-visible"
  | Some dev ->
    Alcotest.(check bool) "dev is up" true dev.Dev.up;
    (* The device answers traffic once addressed: give it an IP in the
       bridge subnet and ping it from the client. *)
    let pod_ns = Nest_virt.Vm.new_netns w.vm ~name:"pod" () in
    Stack.attach pod_ns dev;
    Stack.add_addr pod_ns dev (ip "10.0.0.77") (cidr "10.0.0.0/24");
    Route.add_default (Stack.routes pod_ns) ~gateway:(ip "10.0.0.1") ~dev ();
    let got = ref false in
    Stack.ping w.client_ns ~dst:(ip "10.0.0.77") ~on_reply:(fun ~rtt_ns:_ ->
        got := true);
    run_until w (Nest_sim.Time.ms 400);
    Alcotest.(check bool) "pod NIC reachable from client" true !got

let test_trace_path () =
  let w = make_world () in
  let vm_ns = Nest_virt.Vm.ns w.vm in
  let _server =
    Stack.Udp.bind vm_ns ~port:7 (fun _ ~src:_ ~src_port:_ _ -> ())
  in
  let client =
    Stack.Udp.bind w.client_ns ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ())
  in
  Stack.Udp.sendto client ~dst:(ip "10.0.0.2") ~dst_port:7 (Payload.raw 64);
  run_until w (Nest_sim.Time.ms 100);
  (* We can't see the packet here, but the namespace counters prove the
     path: client veth tx, host forwarding, VM delivery. *)
  Alcotest.(check int) "host forwarded" 1
    (Stack.counters (Nest_virt.Host.ns w.host)).Stack.forwarded_pkts;
  Alcotest.(check int) "vm delivered" 1
    (Stack.counters vm_ns).Stack.delivered

let suite =
  [ Alcotest.test_case "ping client->vm" `Quick test_ping;
    Alcotest.test_case "udp echo through NAT" `Quick test_udp_round_trip;
    Alcotest.test_case "tcp transfer with framing" `Quick test_tcp_transfer;
    Alcotest.test_case "masquerade rewrites source" `Quick test_nat_hides_client;
    Alcotest.test_case "qmp NIC hot-plug" `Quick test_hotplug_nic;
    Alcotest.test_case "datapath counters" `Quick test_trace_path ]

let () = Alcotest.run "smoke" [ ("end-to-end", suite) ]
