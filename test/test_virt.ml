(* Tests for the virtualization substrate: host, VM, virtio/vhost, QMP,
   hot-plug, and the cost model. *)

open Nest_net
open Nest_virt
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Cpu_account = Nest_sim.Cpu_account

let qtest = QCheck_alcotest.to_alcotest
let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

let world () =
  let e = Engine.create () in
  let acct = Cpu_account.create () in
  let host = Host.create e acct ~name:"host" () in
  let _ = Host.add_bridge host ~name:"virbr0" ~ip:(ip "10.0.0.1")
      ~subnet:(cidr "10.0.0.0/24") in
  let vmm = Vmm.create host in
  (e, acct, host, vmm)

let test_host_defaults () =
  let _, _, host, _ = world () in
  Alcotest.(check string) "entity" "host" (Host.entity host);
  Alcotest.(check bool) "bridge registered" true
    (Host.find_bridge host "virbr0" <> None);
  Alcotest.(check bool) "unknown bridge" true
    (Host.find_bridge host "nope" = None)

let test_vm_creation () =
  let e, _, _, vmm = world () in
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:5 ~mem_mb:4096
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  Engine.run ~until:(Time.ms 1) e;
  Alcotest.(check int) "vcpus" 5 (Vm.vcpus vm);
  Alcotest.(check int) "one boot NIC" 1 (List.length (Vm.nics vm));
  Alcotest.(check bool) "addressed" true
    (Stack.is_local_addr (Vm.ns vm) (ip "10.0.0.2"));
  Alcotest.(check (list string)) "registered" [ "vm1" ]
    (List.map fst (Vmm.vms vmm));
  Alcotest.(check bool) "bridge addr surfaced" true
    (match Vmm.bridge_addr vmm "virbr0" with
    | Some (gw, sub) ->
      Ipv4.equal gw (ip "10.0.0.1") && sub = cidr "10.0.0.0/24"
    | None -> false)

let test_create_vm_bad_bridge () =
  let _, _, _, vmm = world () in
  Alcotest.check_raises "unknown bridge"
    (Failure "Vmm.create_vm: no such bridge: br-x") (fun () ->
      ignore
        (Vmm.create_vm vmm ~name:"v" ~vcpus:1 ~mem_mb:512 ~bridge:"br-x"
           ~ip:(ip "10.0.0.9")))

let test_qmp_errors () =
  let e, _, _, vmm = world () in
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  let responses = ref [] in
  let push r = responses := r :: !responses in
  Vmm.execute vmm ~vm (Qmp.Netdev_add { id = "nd0"; bridge = "missing" }) push;
  Vmm.execute vmm ~vm (Qmp.Device_add { id = "n0"; netdev = "ghost" }) push;
  Vmm.execute vmm ~vm (Qmp.Device_del { id = "ghost" }) push;
  Vmm.execute vmm ~vm (Qmp.Netdev_add_hostlo { id = "nd1"; hostlo = "nope" }) push;
  Engine.run ~until:(Time.sec 1) e;
  Alcotest.(check int) "all responded" 4 (List.length !responses);
  Alcotest.(check bool) "all errors" true
    (List.for_all (function Qmp.Error _ -> true | _ -> false) !responses)

let test_qmp_roundtrip_has_latency () =
  let e, _, _, vmm = world () in
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  let t0 = Engine.now e in
  let responded_at = ref 0 in
  Vmm.execute vmm ~vm (Qmp.Netdev_add { id = "nd0"; bridge = "virbr0" })
    (fun _ -> responded_at := Engine.now e);
  Engine.run ~until:(Time.sec 1) e;
  let rtt = !responded_at - t0 in
  Alcotest.(check bool)
    (Printf.sprintf "management RTT in a plausible band (got %dus)" (rtt / 1000))
    true
    (rtt > Time.us 50 && rtt < Time.ms 2)

let test_hotplug_protocol_steps () =
  let e, _, _, vmm = world () in
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  (* Drive the two QMP commands by hand, then discover by MAC like the
     in-guest agent (§3.1 steps 1-4). *)
  let mac = ref None in
  Vmm.execute vmm ~vm (Qmp.Netdev_add { id = "nd0"; bridge = "virbr0" })
    (fun r -> Alcotest.(check bool) "netdev_add ok" true (r = Qmp.Ok_done));
  Engine.run ~until:(Engine.now e + Time.ms 5) e;
  Vmm.execute vmm ~vm (Qmp.Device_add { id = "nic0"; netdev = "nd0" })
    (fun r ->
      match r with
      | Qmp.Ok_nic { mac = m } -> mac := Some m
      | _ -> Alcotest.fail "device_add failed");
  Engine.run ~until:(Engine.now e + Time.ms 2) e;
  let m = Option.get !mac in
  (* Device must NOT be guest-visible before the probe delay. *)
  Alcotest.(check bool) "not visible immediately" true
    (not (List.exists (fun d -> Mac.equal d.Dev.mac m) (Vm.nics vm)));
  let seen = ref false in
  Vm.wait_nic vm ~mac:m ~k:(fun _ -> seen := true) ();
  Engine.run ~until:(Engine.now e + Time.ms 200) e;
  Alcotest.(check bool) "guest-visible after probe" true !seen

let test_device_del_unplugs () =
  let e, _, _, vmm = world () in
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  let dev = ref None in
  Vmm.hotplug_nic vmm ~vm ~bridge:"virbr0" ~id:"nic0"
    ~k:(fun d -> dev := Some d);
  Engine.run ~until:(Time.ms 200) e;
  let d = Option.get !dev in
  Alcotest.(check bool) "up after plug" true d.Dev.up;
  Vmm.execute vmm ~vm (Qmp.Device_del { id = "nic0" }) ignore;
  Engine.run ~until:(Time.ms 400) e;
  Alcotest.(check bool) "down after device_del" false d.Dev.up

let test_guest_time_double_accounting () =
  let e, acct, host, vmm = world () in
  ignore host;
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  Engine.run ~until:(Time.ms 1) e;
  (* Work charged from here on, past the boot's. *)
  let get entity cat = Cpu_account.get acct ~entity cat in
  let soft0 = get "vm1" Cpu_account.Soft and guest0 = get "host" Cpu_account.Guest in
  let app = Vm.new_app_exec vm ~name:"w" ~entity:"myapp" in
  Nest_sim.Exec.submit app ~cost:1_000 (fun () -> ());
  Nest_sim.Exec.submit (Vm.soft_exec vm) ~cost:500 (fun () -> ());
  Engine.run e;
  Alcotest.(check int) "app usr" 1_000 (get "myapp" Cpu_account.Usr);
  Alcotest.(check int) "vm soft" 500 (get "vm1" Cpu_account.Soft - soft0);
  Alcotest.(check int) "host guest = sum of guest work" 1_500
    (get "host" Cpu_account.Guest - guest0)

let test_hostlo_tap_shared_mac () =
  let e, _, _, vmm = world () in
  let vm1 = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  let vm2 = Vmm.create_vm vmm ~name:"vm2" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.3") in
  let tap = Vmm.create_hostlo vmm ~name:"hlo0" in
  Alcotest.(check bool) "registered" true (Vmm.find_tap vmm "hlo0" <> None);
  let d1 = ref None and d2 = ref None in
  let plug vm id cell =
    Vmm.hotplug_hostlo_endpoint_mac vmm ~vm ~hostlo:"hlo0" ~id ~k:(function
      | Ok mac -> Vm.wait_nic vm ~mac ~k:(fun d -> cell := Some d) ()
      | Error e -> Alcotest.fail e)
  in
  plug vm1 "e1" d1;
  plug vm2 "e2" d2;
  Engine.run ~until:(Time.ms 500) e;
  let d1 = Option.get !d1 and d2 = Option.get !d2 in
  Alcotest.(check bool) "one interface, one MAC (multiplexed)" true
    (Mac.equal d1.Dev.mac d2.Dev.mac && Mac.equal d1.Dev.mac (Tap.mac tap));
  Alcotest.(check bool) "endpoints are reflectors" true
    (d1.Dev.l2 = Dev.Reflector && d2.Dev.l2 = Dev.Reflector);
  Alcotest.(check int) "two queues" 2 (List.length (Tap.queues tap))

let test_cost_model_scaled =
  QCheck.Test.make ~name:"Cost_model.scaled multiplies datapath costs"
    ~count:100
    QCheck.(float_range 0.5 3.0)
    (fun f ->
      let cm = Cost_model.default in
      let s = Cost_model.scaled cm f in
      let close a b = abs_float (a -. b) <= 0.5 +. (0.01 *. abs_float b) in
      close
        (float_of_int s.Cost_model.stack_rx_fixed_ns)
        (f *. float_of_int cm.Cost_model.stack_rx_fixed_ns)
      && close
           (float_of_int s.Cost_model.vhost_fixed_ns)
           (f *. float_of_int cm.Cost_model.vhost_fixed_ns)
      && close s.Cost_model.veth_per_byte_ns (f *. cm.Cost_model.veth_per_byte_ns)
      (* Management latencies are deliberately not scaled. *)
      && s.Cost_model.qmp_roundtrip_mean_ns = cm.Cost_model.qmp_roundtrip_mean_ns)

let test_vhost_charges_host_sys () =
  let e, acct, _, vmm = world () in
  let vm = Vmm.create_vm vmm ~name:"vm1" ~vcpus:2 ~mem_mb:1024
      ~bridge:"virbr0" ~ip:(ip "10.0.0.2") in
  Engine.run ~until:(Time.ms 1) e;
  let sys0 = Cpu_account.get acct ~entity:"host" Cpu_account.Sys in
  (* Transmit one frame out of the guest: the vhost worker's time must
     land on host sys. *)
  let dev = List.hd (Vm.nics vm) in
  Dev.transmit dev
    (Frame.make ~src:dev.Dev.mac ~dst:Mac.broadcast
       (Frame.Ipv4_body
          (Packet.make ~src:(ip "10.0.0.2") ~dst:(ip "10.0.0.255")
             (Packet.Udp { src_port = 1; dst_port = 2; payload = Payload.raw 64 }))));
  Engine.run e;
  Alcotest.(check bool) "host sys charged by vhost" true
    (Cpu_account.get acct ~entity:"host" Cpu_account.Sys > sys0)

let () =
  Alcotest.run "virt"
    [ ( "host+vm",
        [ Alcotest.test_case "host defaults" `Quick test_host_defaults;
          Alcotest.test_case "vm creation" `Quick test_vm_creation;
          Alcotest.test_case "bad bridge" `Quick test_create_vm_bad_bridge;
          Alcotest.test_case "guest accounting" `Quick
            test_guest_time_double_accounting;
          Alcotest.test_case "vhost accounting" `Quick test_vhost_charges_host_sys ]
      );
      ( "qmp",
        [ Alcotest.test_case "errors" `Quick test_qmp_errors;
          Alcotest.test_case "latency" `Quick test_qmp_roundtrip_has_latency;
          Alcotest.test_case "hotplug protocol" `Quick test_hotplug_protocol_steps;
          Alcotest.test_case "device_del" `Quick test_device_del_unplugs;
          Alcotest.test_case "hostlo shared mac" `Quick test_hostlo_tap_shared_mac ]
      );
      ("cost model", [ qtest test_cost_model_scaled ]) ]
