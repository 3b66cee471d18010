type entry = {
  id : string;
  description : string;
  run : quick:bool -> unit;
}

let all =
  [ { id = "fig2";
      description = "Netperf: nested (NAT) vs single-level at 1280B";
      run = (fun ~quick -> Fig_netperf.fig2 ~quick) };
    { id = "table1";
      description = "Macro-benchmark parameters and metrics";
      run = (fun ~quick:_ -> Fig_macro.table1 ()) };
    { id = "fig4";
      description = "BrFusion microbenchmark sweep (throughput + latency)";
      run = (fun ~quick -> Fig_netperf.fig4 ~quick) };
    { id = "fig5";
      description = "BrFusion macro gain: Memcached, NGINX, Kafka";
      run = (fun ~quick -> Fig_macro.fig5 ~quick) };
    { id = "fig6";
      description = "Kafka CPU breakdown";
      run = (fun ~quick -> Fig_cpu.fig6 ~quick) };
    { id = "fig7";
      description = "NGINX CPU breakdown";
      run = (fun ~quick -> Fig_cpu.fig7 ~quick) };
    { id = "fig8";
      description = "Container start-up time: Docker NAT vs BrFusion";
      run = (fun ~quick -> Fig_boot.fig8 ~quick) };
    { id = "table2";
      description = "AWS EC2 m5 models";
      run = (fun ~quick:_ -> Fig_cost.table2 ()) };
    { id = "fig9";
      description = "Hostlo cost savings over cluster traces";
      run = (fun ~quick -> Fig_cost.fig9 ~quick) };
    { id = "fig10";
      description = "Hostlo overhead microbenchmark (intra-pod sweep)";
      run = (fun ~quick -> Fig_netperf.fig10 ~quick) };
    { id = "fig11";
      description = "Memcached throughput, intra-pod modes";
      run = (fun ~quick -> Fig_macro.fig11 ~quick) };
    { id = "fig12";
      description = "Memcached latency/variability, intra-pod modes";
      run = (fun ~quick -> Fig_macro.fig12 ~quick) };
    { id = "fig13";
      description = "NGINX latency, intra-pod modes";
      run = (fun ~quick -> Fig_macro.fig13 ~quick) };
    { id = "fig14";
      description = "Memcached CPU usage, intra-pod modes";
      run = (fun ~quick -> Fig_cpu.fig14 ~quick) };
    { id = "fig15";
      description = "NGINX CPU usage, intra-pod modes";
      run = (fun ~quick -> Fig_cpu.fig15 ~quick) } ]

let ablations =
  [ { id = "ablate-guest-factor";
      description = "Ablation: guest-kernel cost factor sweep";
      run = (fun ~quick -> Ablations.guest_factor ~quick) };
    { id = "ablate-chains";
      description = "Ablation: iptables chain length sweep";
      run = (fun ~quick -> Ablations.chain_length ~quick) };
    { id = "ablate-fanout";
      description = "Ablation: Hostlo reflection fan-out";
      run = (fun ~quick -> Ablations.hostlo_fanout ~quick) };
    { id = "ablate-packing";
      description = "Ablation: baseline placement policy";
      run = (fun ~quick -> Ablations.packing_policy ~quick) };
    { id = "ext-autopilot";
      description = "Extension: integrated orchestrator (paper section 7)";
      run = (fun ~quick -> Ext_autopilot.run ~quick) };
    { id = "ext-mempipe";
      description = "Extension: MemPipe shared memory vs Hostlo (section 6)";
      run = (fun ~quick -> Ext_mempipe.run ~quick) };
    { id = "chaos";
      description = "Fault injection & recovery: availability per mode";
      run = (fun ~quick -> Fig_chaos.run ~quick ()) };
    { id = "fleet";
      description = "Fleet-scale trace replay under open-loop load";
      run = (fun ~quick -> Fig_fleet.run ~quick ()) } ]

let find id = List.find_opt (fun e -> e.id = id) (all @ ablations)

(* Experiments print as they go, so the batch itself stays sequential;
   [jobs] widens the cell-level fan-out *inside* each experiment (see
   {!Exp_util.Par}), which is where the independent testbeds are. *)
let run_all ?(jobs = 1) ~quick () =
  Exp_util.Par.set_jobs jobs;
  List.iter (fun e -> e.run ~quick) all
