open Nest_net
open Nestfusion
module Time = Nest_sim.Time
module Stats = Nest_sim.Stats
module Engine = Nest_container.Engine

let image = Nest_container.Image.make ~name:"netperf-server" ~size_mb:24

let boot_one tb ~docker ~mode ~index =
  let vm = Testbed.vm tb 0 in
  let name = Printf.sprintf "boot-%d" index in
  let done_ = ref None in
  let container =
    match mode with
    | `Nat ->
      let netns = Nest_virt.Vm.new_netns vm ~name () in
      Engine.run docker ~name ~entity:"boot" ~image ~netns
        ~net_setup:(fun k -> Engine.nat_net_setup docker ~netns ~publish:[] k)
        ~on_ready:(fun c -> done_ := Some c)
        ()
    | `Brfusion ->
      (* The BrFusion CNI path: ask the VMM for a fresh NIC on the host
         bridge and configure it inside the pod namespace (§3.1). *)
      let netns = Nest_virt.Vm.new_netns vm ~name () in
      let gw, subnet =
        match Nest_virt.Vmm.bridge_addr tb.Testbed.vmm "virbr0" with
        | Some a -> a
        | None -> failwith "fig8: no virbr0"
      in
      Engine.run docker ~name ~entity:"boot" ~image ~netns
        ~net_setup:(fun k ->
          Nest_virt.Vmm.hotplug_nic tb.Testbed.vmm ~vm ~bridge:"virbr0"
            ~id:("brf-" ^ name)
            ~k:(fun dev ->
              Stack.attach netns dev;
              Stack.add_addr netns dev
                (Ipv4.host subnet (100 + index))
                subnet;
              Route.add_default (Stack.routes netns) ~gateway:gw ~dev ();
              k ()))
        ~on_ready:(fun c -> done_ := Some c)
        ()
  in
  ignore container;
  (* Boots complete within a couple of seconds of simulated time. *)
  let deadline = Nest_sim.Engine.now tb.Testbed.engine + Time.sec 10 in
  Testbed.run_until tb deadline;
  match !done_ with
  | None -> failwith "fig8: container never became ready"
  | Some c -> (
    match Engine.boot_duration_ns c with
    | Some ns -> Time.to_ms_f ns
    | None -> failwith "fig8: no boot duration recorded")

let boot_samples ~mode ~runs ~seed =
  let tb = Testbed.create ~seed ~num_vms:1 () in
  let docker = Nest_orch.Node.docker (Testbed.node tb 0) in
  List.init runs (fun i -> boot_one tb ~docker ~mode ~index:i)

let fig8 ~quick =
  Exp_util.header "Fig. 8 — container start-up time (ms)";
  let runs = if quick then 40 else 100 in
  (* The two series use separate testbeds (the runs within one share a
     testbed and stay sequential), so they are two parallel cells. *)
  let nat, brf =
    match
      Exp_util.Par.map
        (fun mode -> boot_samples ~mode ~runs ~seed:7L)
        [ `Nat; `Brfusion ]
    with
    | [ nat; brf ] -> (nat, brf)
    | _ -> assert false
  in
  let stats name samples =
    let s = Stats.create ~name () in
    List.iter (Stats.add s) samples;
    s
  in
  let nat_s = stats "NAT" nat and brf_s = stats "BrFusion" brf in
  Printf.printf "%-10s %8s %8s %8s %8s %8s %8s %8s\n" "mode" "mean" "sd"
    "min" "p25" "p50" "p75" "max";
  List.iter
    (fun s ->
      Printf.printf "%-10s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n"
        (Stats.name s) (Stats.mean s) (Stats.stddev s) (Stats.min s)
        (Stats.percentile s 25.0) (Stats.percentile s 50.0)
        (Stats.percentile s 75.0) (Stats.max s))
    [ nat_s; brf_s ];
  (* Fig. 8a: fraction of the distribution where BrFusion is at or below
     Docker NAT (paper: ~75% of start-up times slightly better). *)
  let quantiles = List.init 19 (fun i -> float_of_int (5 * (i + 1))) in
  let better =
    List.filter
      (fun q -> Stats.percentile brf_s q <= Stats.percentile nat_s q)
      quantiles
  in
  Exp_util.kv "quantiles where BrFusion <= NAT (paper: ~75%)"
    (Printf.sprintf "%.0f%%"
       (100.0
       *. float_of_int (List.length better)
       /. float_of_int (List.length quantiles)));
  Printf.printf "  CDF (ms at p10..p90):\n";
  List.iter
    (fun q ->
      Printf.printf "    p%02.0f  NAT %7.1f   BrFusion %7.1f\n" q
        (Stats.percentile nat_s q) (Stats.percentile brf_s q))
    [ 10.; 25.; 50.; 75.; 90. ];
  let qs = List.init 19 (fun i -> float_of_int (5 * (i + 1))) in
  print_string
    (Chart.plot ~title:"start-up time CDF (Fig. 8a)" ~y_label:"ms"
       ~x_labels:(List.map (fun q -> Printf.sprintf "p%.0f" q) qs)
       ~series:
         [ ("NAT", List.map (fun q -> Stats.percentile nat_s q) qs);
           ("BrFusion", List.map (fun q -> Stats.percentile brf_s q) qs) ])
