open Nestfusion
module Time = Nest_sim.Time
module Stats = Nest_sim.Stats
module Engine = Nest_sim.Engine

type Nest_net.Payload.app_msg += Mp_req of Time.ns | Mp_resp of Time.ns

(* Closed-loop RR over a MemPipe channel between two VMs. *)
let mempipe_rr ~quick ~size =
  let tb = Testbed.create ~num_vms:2 () in
  let engine = tb.Testbed.engine in
  let shm = Pod_resources.Shm.create () in
  let chan =
    Mempipe.create tb.Testbed.host shm ~pod:"pod" ~name:"rr-ring"
  in
  let a = Mempipe.attach chan (Testbed.vm tb 0) in
  let b = Mempipe.attach chan (Testbed.vm tb 1) in
  let latency = Stats.create ~name:"mempipe_us" () in
  let measuring = ref false in
  let stop_at = ref max_int in
  (* Server fraction: echo with the same app cost netperf's server pays. *)
  let srv_exec =
    Nest_virt.Vm.new_app_exec (Testbed.vm tb 1) ~name:"srv" ~entity:"srv"
  in
  Mempipe.set_on_recv b (fun ~size ~msg ->
      match msg with
      | Some (Mp_req t0) ->
        Nest_sim.Exec.submit srv_exec ~cost:250 (fun () ->
            Mempipe.send b ~size ~msg:(Mp_resp t0) ())
      | _ -> ());
  let send_next () =
    Mempipe.send a ~size ~msg:(Mp_req (Engine.now engine)) ()
  in
  Mempipe.set_on_recv a (fun ~size:_ ~msg ->
      match msg with
      | Some (Mp_resp t0) ->
        if !measuring then
          Stats.add latency (Time.to_us_f (Engine.now engine - t0));
        if Engine.now engine < !stop_at then send_next ()
      | _ -> ());
  let d = Exp_util.durations ~quick in
  let t0 = Engine.now engine in
  stop_at := t0 + d.Exp_util.warmup + d.Exp_util.measure;
  send_next ();
  Engine.run ~until:(t0 + d.Exp_util.warmup) engine;
  measuring := true;
  Engine.run ~until:(!stop_at + Time.ms 10) engine;
  latency

let socket_rr ~quick ~mode ~size =
  let tb, site = Exp_util.deploy_pair_sync ~mode ~port:7000 () in
  let ep = Nest_workloads.App.of_pair site in
  let d = Exp_util.durations ~quick in
  (Nest_workloads.Netperf.udp_rr tb ep ~msg_size:size
     ~warmup:d.Exp_util.warmup ~duration:d.Exp_util.measure ())
    .Nest_workloads.Netperf.latency

let run ~quick =
  Exp_util.header
    "Extension (paper 6) - MemPipe shared memory vs Hostlo vs SameNode";
  Printf.printf "%-22s %14s %12s %s\n" "transport" "RR lat (us)" "sd (us)"
    "transparent?";
  let rows =
    [ ( "SameNode localhost",
        socket_rr ~quick ~mode:`SameNode ~size:1024, "yes (same VM only)" );
      ("Hostlo localhost", socket_rr ~quick ~mode:`Hostlo ~size:1024,
        "yes (unmodified apps)");
      ("MemPipe shared mem", mempipe_rr ~quick ~size:1024,
        "no (channel API)") ]
  in
  List.iter
    (fun (name, l, transparent) ->
      Printf.printf "%-22s %14.1f %12.1f %s\n" name (Stats.mean l)
        (Stats.stddev l) transparent)
    rows;
  Exp_util.row
    "  (MemPipe wins on latency by skipping virtio/vhost entirely, but the\n\
    \   paper keeps Hostlo: pods expect their localhost, not a custom API)"
