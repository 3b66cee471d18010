(* Calibration tests: the paper's headline results must hold in shape.

   These run the real experiment pipelines on shortened windows, so the
   tolerance bands are generous; EXPERIMENTS.md records the full-window
   numbers against the paper's. *)

open Nestfusion
module Time = Nest_sim.Time
module Stats = Nest_sim.Stats
module App = Nest_workloads.App
module Netperf = Nest_workloads.Netperf

let dur = Time.ms 250

let single mode =
  let tb = Testbed.create ~num_vms:1 () in
  let site = ref None in
  Deploy.deploy_single tb ~mode ~name:"pod" ~entity:"server" ~port:7000
    ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  (tb, App.of_single tb (Option.get !site))

let pair mode =
  let tb = Testbed.create ~num_vms:2 () in
  let site = ref None in
  Deploy.deploy_pair tb ~mode ~name:"pod" ~a_entity:"client-ctr"
    ~b_entity:"server-ctr" ~port:7000 ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  (tb, App.of_pair (Option.get !site))

let stream mode size =
  let tb, ep = single mode in
  (Netperf.tcp_stream tb ep ~msg_size:size ~duration:dur ()).Netperf.mbps

let stream_pair mode size =
  let tb, ep = pair mode in
  (Netperf.tcp_stream tb ep ~msg_size:size ~duration:dur ()).Netperf.mbps

let rr mode size =
  let tb, ep = single mode in
  Stats.mean (Netperf.udp_rr tb ep ~msg_size:size ~duration:dur ()).Netperf.latency

let rr_pair mode size =
  let tb, ep = pair mode in
  Stats.mean (Netperf.udp_rr tb ep ~msg_size:size ~duration:dur ()).Netperf.latency

let band name lo v hi =
  Alcotest.(check bool)
    (Printf.sprintf "%s in [%.2f, %.2f] (got %.3f)" name lo hi v)
    true
    (v >= lo && v <= hi)

(* --- Fig. 2 / Fig. 4: BrFusion headline ratios --- *)

let test_nat_latency_penalty () =
  (* Paper: +31% latency for nested NAT vs single-level. *)
  band "NAT/NoCont RR latency" 1.20 (rr `Nat 1280 /. rr `NoCont 1280) 1.50

let test_brfusion_beats_nat_throughput () =
  (* Paper: BrFusion throughput 2.1x NAT at 1280B. *)
  band "BrFusion/NAT throughput" 1.8
    (stream `Brfusion 1280 /. stream `Nat 1280)
    2.6

let test_brfusion_matches_nocont () =
  (* Paper: within 3.5% of NoCont. *)
  let r = stream `Brfusion 1280 /. stream `NoCont 1280 in
  band "BrFusion/NoCont throughput" 0.95 r 1.05;
  let l = rr `Brfusion 1280 /. rr `NoCont 1280 in
  band "BrFusion/NoCont latency" 0.95 l 1.08

let test_nat_stagnates () =
  (* Paper: NAT scales more slowly with message size and stagnates. *)
  let nat_small = stream `Nat 256 and nat_big = stream `Nat 4096 in
  let noc_small = stream `NoCont 256 and noc_big = stream `NoCont 4096 in
  Alcotest.(check bool) "NoCont gains more from larger messages" true
    (noc_big /. noc_small > nat_big /. nat_small)

(* --- Fig. 10: Hostlo headline ratios --- *)

let test_hostlo_vs_pairs () =
  let same = stream_pair `SameNode 1024 in
  let natx = stream_pair `NatX 1024 in
  let hlo = stream_pair `Hostlo 1024 in
  (* Paper: Hostlo +17.9% over NAT; SameNode 5.3x Hostlo (6.1x worst). *)
  band "Hostlo/NAT throughput" 1.05 (hlo /. natx) 1.55;
  band "SameNode/Hostlo throughput" 4.0 (same /. hlo) 7.5

let test_hostlo_latency_flat_and_low () =
  let same = rr_pair `SameNode 1024 in
  let natx = rr_pair `NatX 1024 in
  let ov = rr_pair `Overlay 1024 in
  let hlo_small = rr_pair `Hostlo 64 in
  let hlo = rr_pair `Hostlo 1024 in
  (* Paper: Hostlo ~2x SameNode, far below NAT and Overlay, flat in size. *)
  band "Hostlo/SameNode latency" 1.5 (hlo /. same) 2.5;
  Alcotest.(check bool) "below NAT" true (hlo < natx);
  Alcotest.(check bool) "below Overlay" true (hlo < ov);
  band "Hostlo latency flatness across sizes" 0.85 (hlo /. hlo_small) 1.35

(* --- Fig. 8: boot times --- *)

let test_boot_brfusion_mostly_better () =
  let nat = Nest_experiments.Fig_boot.boot_samples ~mode:`Nat ~runs:30 ~seed:3L in
  let brf =
    Nest_experiments.Fig_boot.boot_samples ~mode:`Brfusion ~runs:30 ~seed:3L
  in
  let s l =
    let s = Stats.create () in
    List.iter (Stats.add s) l;
    s
  in
  let nat = s nat and brf = s brf in
  (* Paper: ~75% of start-up times slightly better with BrFusion; both in
     the hundreds of milliseconds. *)
  Alcotest.(check bool) "NAT boot in docker-like band" true
    (Stats.mean nat > 200.0 && Stats.mean nat < 1000.0);
  Alcotest.(check bool) "BrFusion median at or below NAT (2% noise band)" true
    (Stats.percentile brf 50.0 <= Stats.percentile nat 50.0 *. 1.02);
  Alcotest.(check bool) "BrFusion mean at or below NAT" true
    (Stats.mean brf <= Stats.mean nat *. 1.01);
  Alcotest.(check bool) "difference is slight (within 25%)" true
    (Stats.mean brf > 0.75 *. Stats.mean nat)

(* --- Fig. 9: cost savings --- *)

let test_cost_savings_shape () =
  let users = Nest_traces.Trace_gen.generate ~seed:2026L ~users:200 in
  let s = Nest_costsim.Report.summarize (Nest_costsim.Report.evaluate users) in
  (* Paper: ~11.4% of users save; most savers above 5%; max ~40%. *)
  band "fraction of users saving" 0.03 s.Nest_costsim.Report.frac_with_savings 0.25;
  band "savers above 5%" 0.4 s.Nest_costsim.Report.frac_savers_over_5pct 1.0;
  band "max relative saving" 0.15 s.Nest_costsim.Report.max_rel_saving 0.70

let () =
  Alcotest.run "calibration"
    [ ( "brfusion",
        [ Alcotest.test_case "NAT latency penalty" `Slow test_nat_latency_penalty;
          Alcotest.test_case "2.1x throughput" `Slow
            test_brfusion_beats_nat_throughput;
          Alcotest.test_case "matches NoCont" `Slow test_brfusion_matches_nocont;
          Alcotest.test_case "NAT stagnates" `Slow test_nat_stagnates ] );
      ( "hostlo",
        [ Alcotest.test_case "throughput ratios" `Slow test_hostlo_vs_pairs;
          Alcotest.test_case "latency ratios" `Slow
            test_hostlo_latency_flat_and_low ] );
      ( "boot",
        [ Alcotest.test_case "brfusion mostly better" `Slow
            test_boot_brfusion_mostly_better ] );
      ( "costsim",
        [ Alcotest.test_case "savings shape" `Slow test_cost_savings_shape ] ) ]
