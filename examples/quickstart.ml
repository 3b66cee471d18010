(* Quickstart: boot the paper's testbed, deploy a pod under BrFusion, and
   exchange traffic with it.

     dune exec examples/quickstart.exe *)

open Nestfusion
open Nest_net
module Time = Nest_sim.Time

let () =
  (* One physical host (12 CPUs), a host bridge with NAT, one VM with
     5 vCPUs / 4 GB, and a client process on the host — §5.1's setup. *)
  let tb = Testbed.create ~num_vms:1 () in
  Printf.printf "testbed up: host bridge %s, vm1 at 10.0.0.2\n"
    (Bridge.name tb.Testbed.bridge);

  (* Deploy a pod with BrFusion: the orchestrator asks the VMM for a
     fresh NIC over QMP, and the pod namespace gets it directly. *)
  let site = ref None in
  Deploy.deploy_single tb ~mode:`Brfusion ~name:"demo-pod" ~entity:"demo"
    ~port:7000 ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  let site = Option.get !site in
  Printf.printf "pod deployed; BrFusion NIC carries %s\n"
    (Ipv4.to_string site.Deploy.site_addr);

  (* Ping it from the host client. *)
  Stack.ping tb.Testbed.client_ns ~dst:site.Deploy.site_addr
    ~on_reply:(fun ~rtt_ns ->
      Printf.printf "ping: reply from pod in %.1f us\n" (Time.to_us_f rtt_ns));
  Testbed.run_until tb (Time.sec 2);

  (* The packet path, hop by hop, from a datagram's provenance record:
     note there is no in-VM bridge. *)
  Path_probe.udp_timed_path ~src:tb.Testbed.client_ns
    ~dst:site.Deploy.site_ns ~dst_addr:site.Deploy.site_addr ~port:7000
    ~k:(fun entries ->
      Format.printf "datapath: %a@." Path_probe.pp_hops
        (List.map (fun e -> e.Nest_sim.Provenance.hop) entries))
    ();
  Testbed.run_until tb (Time.sec 3);

  (* A short netperf. *)
  let ep = Nest_workloads.App.of_single tb site in
  let s =
    Nest_workloads.Netperf.tcp_stream tb ep ~msg_size:1280
      ~duration:(Time.ms 300) ()
  in
  Printf.printf "netperf TCP_STREAM (1280B messages): %.0f Mbps\n"
    s.Nest_workloads.Netperf.mbps;
  print_endline "quickstart: done."
