open Nestfusion
module Stats = Nest_sim.Stats
module Netperf = Nest_workloads.Netperf
module App = Nest_workloads.App

type point = {
  size : int;
  mbps : float;
  lat_mean_us : float;
  lat_sd_us : float;
}

let point_of ~quick ~endpoints_of ~size =
  let d = Exp_util.durations ~quick in
  (* Separate deployments for the stream and RR runs keep the contexts
     clean (netperf runs them as separate processes too). *)
  let tb1, ep1 = endpoints_of () in
  let stream =
    Netperf.tcp_stream tb1 ep1 ~msg_size:size ~warmup:d.Exp_util.warmup
      ~duration:d.Exp_util.measure ()
  in
  let tb2, ep2 = endpoints_of () in
  let rr =
    Netperf.udp_rr tb2 ep2 ~msg_size:size ~warmup:d.Exp_util.warmup
      ~duration:d.Exp_util.measure ()
  in
  { size;
    mbps = stream.Netperf.mbps;
    lat_mean_us = Stats.mean rr.Netperf.latency;
    lat_sd_us = Stats.stddev rr.Netperf.latency }

let single_cell ~quick ~mode ~size =
  let endpoints_of () =
    let tb, site = Exp_util.deploy_single_sync ~mode ~port:7000 () in
    (tb, App.of_single tb site)
  in
  point_of ~quick ~endpoints_of ~size

let pair_cell ~quick ~mode ~size =
  let endpoints_of () =
    let tb, site = Exp_util.deploy_pair_sync ~mode ~port:7000 () in
    (tb, App.of_pair site)
  in
  point_of ~quick ~endpoints_of ~size

let sweep_single ~quick ~mode ~sizes =
  Exp_util.Par.map (fun size -> single_cell ~quick ~mode ~size) sizes

(* Flatten a mode × size sweep into independent cells, fan them through
   the domain pool, and regroup into per-mode point lists (cell order is
   preserved by [Par.map], so each group comes back in size order). *)
let sweep_modes ~modes ~sizes ~cell =
  let cells =
    List.concat_map (fun m -> List.map (fun s -> (m, s)) sizes) modes
  in
  let points = Exp_util.Par.map (fun (m, s) -> cell m s) cells in
  let tagged = List.map2 (fun (m, _) p -> (m, p)) cells points in
  List.map
    (fun m ->
      (m, List.filter_map (fun (m', p) -> if m' = m then Some p else None)
            tagged))
    modes

let print_sweep name points =
  Printf.printf "%-10s %8s %14s %14s %12s\n" name "size(B)" "tput(Mbps)"
    "lat mean(us)" "lat sd(us)";
  List.iter
    (fun p ->
      Printf.printf "%-10s %8d %14.1f %14.1f %12.1f\n" name p.size p.mbps
        p.lat_mean_us p.lat_sd_us)
    points

let find_size points size = List.find (fun p -> p.size = size) points

let charts results ~what =
  let x_labels =
    List.map (fun p -> string_of_int p.size) (snd (List.hd results))
  in
  print_string
    (Chart.plot ~title:(what ^ " vs message size") ~y_label:what ~x_labels
       ~series:
         (List.map
            (fun (name, points) -> (name, List.map (fun p -> p.mbps) points))
            results));
  print_string
    (Chart.plot ~title:"UDP_RR latency vs message size" ~y_label:"us"
       ~x_labels
       ~series:
         (List.map
            (fun (name, points) ->
              (name, List.map (fun p -> p.lat_mean_us) points))
            results))

let fig2 ~quick =
  Exp_util.header "Fig. 2 — nested (NAT) vs single-level (NoCont) at 1280 B";
  let sizes = [ 1280 ] in
  let nat, nocont =
    match
      sweep_modes ~modes:[ `Nat; `NoCont ] ~sizes
        ~cell:(fun mode size -> single_cell ~quick ~mode ~size)
    with
    | [ (_, nat); (_, nocont) ] -> (nat, nocont)
    | _ -> assert false
  in
  print_sweep "NAT" nat;
  print_sweep "NoCont" nocont;
  let n = find_size nat 1280 and o = find_size nocont 1280 in
  Exp_util.kv "throughput degradation (paper: ~-68% / fig4-consistent ~-52%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct n.mbps o.mbps));
  Exp_util.kv "latency increase (paper: ~+31%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct n.lat_mean_us o.lat_mean_us))

let fig4 ~quick =
  Exp_util.header "Fig. 4 — BrFusion microbenchmark (message-size sweep)";
  let sizes =
    if quick then [ 64; 256; 1024; 1280; 4096; 16384 ]
    else Netperf.default_sizes
  in
  let results =
    sweep_modes ~modes:Modes.all_single ~sizes
      ~cell:(fun mode size -> single_cell ~quick ~mode ~size)
  in
  List.iter
    (fun (mode, points) -> print_sweep (Modes.single_to_string mode) points)
    results;
  charts
    (List.map (fun (m, p) -> (Modes.single_to_string m, p)) results)
    ~what:"throughput (Mbps)";
  let at mode size = find_size (List.assoc mode results) size in
  let nat = at `Nat 1280 and brf = at `Brfusion 1280 and noc = at `NoCont 1280 in
  Exp_util.kv "BrFusion/NAT throughput at 1280 B (paper: 2.1x)"
    (Printf.sprintf "%.2fx" (brf.mbps /. nat.mbps));
  Exp_util.kv "BrFusion latency vs NAT (paper: -18.4%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct brf.lat_mean_us nat.lat_mean_us));
  Exp_util.kv "BrFusion vs NoCont throughput (paper: within 3.5%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct brf.mbps noc.mbps))

let fig10 ~quick =
  Exp_util.header "Fig. 10 — Hostlo overhead microbenchmark (intra-pod)";
  let sizes =
    if quick then [ 64; 256; 1024; 4096 ]
    else [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
  in
  let results =
    sweep_modes ~modes:Modes.all_pair ~sizes
      ~cell:(fun mode size -> pair_cell ~quick ~mode ~size)
  in
  List.iter
    (fun (mode, points) -> print_sweep (Modes.pair_to_string mode) points)
    results;
  charts
    (List.map (fun (m, p) -> (Modes.pair_to_string m, p)) results)
    ~what:"throughput (Mbps)";
  let at mode size = find_size (List.assoc mode results) size in
  let same = at `SameNode 1024
  and natx = at `NatX 1024
  and ov = at `Overlay 1024
  and hlo = at `Hostlo 1024 in
  Exp_util.kv "Hostlo vs NAT throughput at 1024 B (paper: +17.9%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct hlo.mbps natx.mbps));
  Exp_util.kv "SameNode/Hostlo throughput (paper: 5.3x; worst case 6.1x)"
    (Printf.sprintf "%.1fx" (same.mbps /. hlo.mbps));
  Exp_util.kv "Hostlo latency vs NAT (paper: -87.3%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct hlo.lat_mean_us natx.lat_mean_us));
  Exp_util.kv "Hostlo latency vs Overlay (paper: -89.8%)"
    (Printf.sprintf "%+.1f%%" (Exp_util.pct hlo.lat_mean_us ov.lat_mean_us));
  Exp_util.kv "Hostlo/SameNode latency (paper: ~2x)"
    (Printf.sprintf "%.2fx" (hlo.lat_mean_us /. same.lat_mean_us))
