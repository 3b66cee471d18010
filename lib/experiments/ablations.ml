open Nestfusion
open Nest_net
module Time = Nest_sim.Time
module Stats = Nest_sim.Stats
module App = Nest_workloads.App
module Netperf = Nest_workloads.Netperf
module Cost_model = Nest_virt.Cost_model

let dur ~quick = if quick then Time.ms 150 else Time.ms 500

let deploy_single_cm ~cost_model ~mode =
  let tb = Testbed.create ~cost_model ~num_vms:1 () in
  let site = ref None in
  Deploy.deploy_single tb ~mode ~name:"pod" ~entity:"server" ~port:7000
    ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  (tb, App.of_single tb (Option.get !site))

let stream_cm ~quick ~cost_model mode =
  let tb, ep = deploy_single_cm ~cost_model ~mode in
  (Netperf.tcp_stream tb ep ~msg_size:1280 ~duration:(dur ~quick) ()).Netperf.mbps

let guest_factor ~quick =
  Exp_util.header "Ablation — guest-kernel cost factor";
  Printf.printf "%8s %12s %12s %14s\n" "factor" "NoCont" "NAT" "NAT/NoCont";
  List.iter
    (fun f ->
      let cost_model =
        { Cost_model.default with Cost_model.guest_kernel_factor = f }
      in
      let noc = stream_cm ~quick ~cost_model `NoCont in
      let nat = stream_cm ~quick ~cost_model `Nat in
      Printf.printf "%8.2f %10.0f M %10.0f M %13.2f%%\n" f noc nat
        (100.0 *. nat /. noc))
    [ 1.0; 1.2; 1.4; 1.8 ];
  Exp_util.row "  (the nested path pays the factor on every in-VM hop)"

let chain_length ~quick =
  Exp_util.header "Ablation — iptables chain length in the VM";
  Printf.printf "%12s %12s %12s\n" "extra rules" "NAT" "BrFusion";
  List.iter
    (fun extra ->
      let measure mode =
        let tb, ep = deploy_single_cm ~cost_model:Cost_model.default ~mode in
        (* Pile extra never-matching rules onto the VM's forward chain,
           like a busy firewall would. *)
        let nf = Stack.nf (Nest_virt.Vm.ns (Testbed.vm tb 0)) in
        for i = 1 to extra do
          Netfilter.append nf Netfilter.Forward
            { Netfilter.rule_name = Printf.sprintf "filler-%d" i;
              matches = (fun ~in_dev:_ ~out_dev:_ _ -> false);
              action = (fun _ -> Netfilter.Accept) }
        done;
        (Netperf.tcp_stream tb ep ~msg_size:1280 ~duration:(dur ~quick) ())
          .Netperf.mbps
      in
      Printf.printf "%12d %10.0f M %10.0f M\n" extra (measure `Nat)
        (measure `Brfusion))
    [ 0; 20; 60 ];
  Exp_util.row
    "  (BrFusion pods bypass the VM's hooks entirely: flat by construction)"

let hostlo_fanout ~quick =
  Exp_util.header "Ablation — Hostlo reflection fan-out (fractions per pod)";
  Printf.printf "%10s %14s %14s\n" "fractions" "RR latency" "host sys cores";
  List.iter
    (fun n ->
      let tb = Testbed.create ~num_vms:n () in
      let config = Hostlo.make_config tb.Testbed.vmm in
      let plugin = Hostlo.plugin config in
      let nss = Array.make n None in
      Array.iteri
        (fun i _ ->
          plugin.Nest_orch.Cni.add ~pod_name:"pod" ~node:(Testbed.node tb i)
            ~publish:[] ~k:(fun ns -> nss.(i) <- Some ns))
        nss;
      Testbed.run_until tb (Time.sec 2);
      let a = Option.get nss.(0) and b = Option.get nss.(1) in
      let exec_a =
        Nest_virt.Vm.new_app_exec (Testbed.vm tb 0) ~name:"a" ~entity:"a"
      and exec_b =
        Nest_virt.Vm.new_app_exec (Testbed.vm tb 1) ~name:"b" ~entity:"b"
      in
      let ep =
        { App.cl_ns = a; cl_exec = exec_a; sv_ns = b; sv_exec = exec_b;
          sv_addr = Ipv4.localhost; sv_port = 9000;
          cl_new_exec =
            (fun nm -> Nest_virt.Vm.new_app_exec (Testbed.vm tb 0) ~name:nm ~entity:"a");
          sv_new_exec =
            (fun nm -> Nest_virt.Vm.new_app_exec (Testbed.vm tb 1) ~name:nm ~entity:"b") }
      in
      let before = App.Cpu_snap.take tb.Testbed.acct in
      let rr = Netperf.udp_rr tb ep ~msg_size:256 ~duration:(dur ~quick) () in
      let after = App.Cpu_snap.take tb.Testbed.acct in
      let soft =
        App.Cpu_snap.diff_cores ~before ~after ~entity:"host"
          Nest_sim.Cpu_account.Sys
          ~window:(dur ~quick + Time.ms 50)
      in
      Printf.printf "%10d %11.1f us %14.3f\n" n
        (Stats.mean rr.Netperf.latency)
        soft)
    [ 2; 3; 4 ];
  Exp_util.row "  (every frame is reflected to every fraction's queue)"

let packing_policy ~quick =
  Exp_util.header "Ablation — baseline placement policy vs Hostlo savings";
  let users =
    Nest_traces.Trace_gen.generate ~seed:2026L ~users:(if quick then 60 else 150)
  in
  Printf.printf "%-16s %14s %14s %10s\n" "policy" "baseline $/h"
    "hostlo $/h" "saving";
  List.iter
    (fun (name, policy) ->
      let base_total, hostlo_total =
        List.fold_left
          (fun (b, h) user ->
            let plan = Nest_costsim.Kube_pack.pack_user ~policy user in
            let improved, _ = Nest_costsim.Hostlo_pack.improve_copy plan in
            ( b +. Nest_costsim.Kube_pack.plan_cost plan,
              h +. Nest_costsim.Kube_pack.plan_cost improved ))
          (0.0, 0.0) users
      in
      Printf.printf "%-16s %14.2f %14.2f %9.1f%%\n" name base_total
        hostlo_total
        (100.0 *. (base_total -. hostlo_total) /. base_total))
    [ ("most-requested", Nest_costsim.Kube_pack.Most_requested);
      ("least-requested", Nest_costsim.Kube_pack.Least_requested);
      ("first-fit", Nest_costsim.Kube_pack.First_fit) ];
  Exp_util.row
    "  (a weaker baseline leaves more fragmentation for Hostlo to reclaim)"
