(* The chaos experiment cell: one mode, one fault rate, one testbed.

   Two overlapping phases on a 2-VM testbed:

   - a pod-start storm through the Kube control plane, with the plan's
     QMP fault rates live — measures time-to-ready under management-plane
     faults and how many hot-plug retries the kubelets needed;
   - a served cell whose serving VM is crashed (and supervisor-restarted)
     on a fixed trial schedule — measures availability, per-crash
     recovery latency and, when the cell carries a real workload
     (netperf UDP_RR or memcached instead of the default probe),
     goodput-under-fault and post-recovery latency.  Recovery goes
     through production paths: kubelet backoff, rescheduling of the dead
     node's pods, and re-establishment through the mode's own CNI.

   The cell owns everything (engine, testbed, plugin configs, injector),
   so cells are independent and safe to run from [Exp_util.Par] workers;
   all randomness is the testbed seed plus the plan's private stream, so
   a (mode, rate, seed, workload, standby) tuple is fully deterministic. *)

open Nest_net
open Nestfusion
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Metrics = Nest_sim.Metrics
module Vm = Nest_virt.Vm
module Vmm = Nest_virt.Vmm
module Cni = Nest_orch.Cni
module Kube = Nest_orch.Kube
module Node = Nest_orch.Node
module Pod = Nest_orch.Pod
module Netperf = Nest_workloads.Netperf
module Memcached = Nest_workloads.Memcached
module App = Nest_workloads.App
module Slo = Nest_sim.Slo
module Hdr = Nest_sim.Hdr

type mode = [ `Nat | `Brfusion | `Overlay | `Hostlo ]

let mode_to_string = function
  | `Nat -> "nat"
  | `Brfusion -> "brfusion"
  | `Overlay -> "overlay"
  | `Hostlo -> "hostlo"

let all_modes : mode list = [ `Nat; `Brfusion; `Overlay; `Hostlo ]

type workload = Probe | Rr | Mc

let workload_to_string = function
  | Probe -> "probe"
  | Rr -> "rr"
  | Mc -> "memcached"

let workload_of_string = function
  | "probe" -> Some Probe
  | "rr" -> Some Rr
  | "memcached" | "mc" -> Some Mc
  | _ -> None

type outcome = {
  o_mode : string;
  o_rate : float;
  o_workload : string;
  o_standby : int;
  o_pods : int;             (* storm pods requested *)
  o_ready : int;            (* distinct storm pods that reached ready *)
  o_lost : int;             (* evicted pods no surviving node could take *)
  o_setup_failed : int;     (* pod setups abandoned after all retries *)
  o_retries : int;          (* hot-plug retries spent by kubelets *)
  o_ttr_p50_ms : float;     (* storm time-to-ready *)
  o_ttr_p99_ms : float;
  o_sent : int;             (* probes, or workload ops attempted *)
  o_recv : int;             (* replies, or workload ops completed *)
  o_availability : float;
  o_crashes : int;
  o_recovered : float list; (* recovery latency per recovered crash, ms *)
  o_rec_p50_ms : float;
  o_rec_p99_ms : float;
  o_unrecovered : int;      (* crashes with no reply before the next one *)
  o_goodput : float;        (* workload ops completed / s over the window *)
  o_lat_p50_us : float;     (* workload op latency, whole window *)
  o_lat_p99_us : float;
  o_post_p50_us : float;    (* latency after the last service recovery *)
  o_post_p99_us : float;
  o_standby_claims : int;   (* pooled Hostlo endpoints claimed *)
  o_retry_max_attempt : float; (* deepest backoff attempt reached *)
  o_retry_wait_ms : float;  (* total wall time sunk into backoff waits *)
  o_leaked_leases : int;    (* IPAM leases no live pod holds (must be 0) *)
  o_invariants : string list; (* Vmm.check_invariants (must be empty) *)
  o_slo : Slo.compliance list; (* per-objective windowed compliance *)
  o_slo_lat : Hdr.t;        (* completion-latency sketch (µs), mergeable *)
  o_skew_p99_us : float;    (* coordinated-omission send skew, p99 µs *)
  o_co_flagged : bool;      (* skew p99 exceeded the SLO window *)
  o_corr_p50_us : float;    (* wrk2-corrected latency (measured + own skew) *)
  o_corr_p99_us : float;
  o_timeline : (Time.ns * string) list;
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* Nearest-rank percentile; 0.0 for an empty sample. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let run_cell ?(quick = false) ?(workload = Probe) ?(standby = 0)
    ~(mode : mode) ~rate ~seed () =
  let tb = Testbed.create ~seed ~num_vms:2 () in
  let engine = tb.Testbed.engine in
  let k_pods = if quick then 4 else 6 in
  let trials = if quick then 2 else 3 in
  let spacing = if quick then Time.ms 1500 else Time.sec 2 in
  let probe_start = Time.sec 1 in
  let probe_period = Time.ms 2 in
  let restart_after = Time.ms 400 in
  let probe_end = probe_start + (trials * spacing) in
  let horizon = probe_end + Time.ms 500 in
  let port = 7000 in

  (* Declarative SLOs on the served cell, evaluated live in 500 ms
     windows while the workload runs.  The probe only carries an
     availability objective (its replies are untagged, so no latency
     sample exists); real workloads add a p99 latency ceiling and a
     goodput floor.  Violations under fault are expected — the product
     is the per-(mode, rate) compliance report, not an assertion. *)
  let slo_specs =
    match workload with
    | Probe -> [ Slo.availability ~target:0.9 () ]
    | Rr ->
      [ Slo.availability ~target:0.9 ();
        Slo.latency_p ~p:99.0 ~limit_us:2_000.0 ();
        Slo.goodput ~floor_per_s:500.0 () ]
    | Mc ->
      [ Slo.availability ~target:0.9 ();
        Slo.latency_p ~p:99.0 ~limit_us:5_000.0 ();
        Slo.goodput ~floor_per_s:1_000.0 () ]
  in
  let slo =
    Slo.create ~start:probe_start ~stop:probe_end ~specs:slo_specs engine
  in

  (* Mode plumbing: one CNI plugin serves both the storm (via Kube) and
     the probed service (driven directly, to control placement). *)
  let brf_config =
    lazy (Brfusion.make_config ~garp:true tb.Testbed.vmm ~host_bridge:"virbr0")
  in
  let hlo_config = lazy (Hostlo.make_config ~standby tb.Testbed.vmm) in
  let overlay =
    lazy
      (Nest_orch.Cni_overlay.create ~name:"chaos-ov" ~vni:4242
         ~subnet:(Ipv4.cidr_of_string "10.44.0.0/16"))
  in
  let plugin =
    match mode with
    | `Nat -> Nest_orch.Cni_bridge.plugin ()
    | `Brfusion -> Brfusion.plugin (Lazy.force brf_config)
    | `Overlay -> Nest_orch.Cni_overlay.plugin (Lazy.force overlay)
    | `Hostlo -> Hostlo.plugin (Lazy.force hlo_config)
  in
  let kube = Kube.create engine ~default_cni:plugin in
  Kube.add_node kube (Testbed.node tb 0);
  Kube.add_node kube (Testbed.node tb 1);
  let node_by_vm =
    ref [ ("vm1", Testbed.node tb 0); ("vm2", Testbed.node tb 1) ]
  in
  let server_vm = match mode with `Nat | `Brfusion -> "vm1" | _ -> "vm2" in
  (* Where the service currently lives — diverges from [server_vm] when a
     Hostlo standby failover moves the fraction to a surviving VM. *)
  let server_on = ref server_vm in

  (* ---- the served cell: probe echo, or a real workload ---- *)
  let srv_sock = ref None in
  let start_echo ns =
    (match !srv_sock with
    | Some s -> (try Stack.Udp.close s with _ -> ())
    | None -> ());
    srv_sock :=
      Some
        (Stack.Udp.bind ns ~port (fun sock ~src:sip ~src_port:sp payload ->
             Stack.Udp.sendto sock ~dst:sip ~dst_port:sp payload))
  in
  let gen = ref 0 in
  (* Shared by the memcached server generations and forced only when a
     memcached cell actually runs, so probe cells draw nothing extra. *)
  let mc_rng = lazy (Nest_sim.Prng.split (Engine.rng engine)) in
  let start_service node ns =
    match workload with
    | Probe -> start_echo ns
    | Rr ->
      let vm = Node.vm node in
      let exec =
        Vm.new_app_exec vm
          ~name:(Printf.sprintf "rr-srv-%d" !gen)
          ~entity:"rr-srv"
      in
      (match !srv_sock with
      | Some s -> (try Stack.Udp.close s with _ -> ())
      | None -> ());
      srv_sock := Some (Netperf.udp_echo_server ns ~port ~exec)
    | Mc ->
      let vm = Node.vm node in
      let pool =
        App.Pool.create
          (fun n -> Vm.new_app_exec vm ~name:n ~entity:"mc-srv")
          ~n:2
          ~name:(Printf.sprintf "mc-srv-%d" !gen)
      in
      Memcached.serve ~pool ~rng:(Lazy.force mc_rng) ns ~port
  in
  let target = ref None in
  let probe_sock = ref None in
  let sent = ref 0 in
  let recv_times = ref [] in
  let rr_driver = ref None in
  let mc_driver = ref None in
  let service_up = ref [] in
  let ensure_probe_sock ns =
    match !probe_sock with
    | Some _ -> ()
    | None ->
      probe_sock :=
        Some
          (Stack.Udp.bind ns ~port:0 (fun _ ~src:_ ~src_port:_ _ ->
               recv_times := Engine.now engine :: !recv_times;
               Slo.observe_ok slo))
  in
  let service_ready () =
    service_up := Engine.now engine :: !service_up;
    match !mc_driver with
    | Some d -> d.Memcached.mcd_resume ()
    | None -> ()
  in
  let deploy_server node =
    incr gen;
    let name =
      if !gen = 1 then "svc" else Printf.sprintf "svc-r%d" (!gen - 1)
    in
    server_on := Vm.name (Node.vm node);
    match mode with
    | `Nat ->
      (* Published port: the client targets the VM address, which the
         restart reuses — the target never moves. *)
      plugin.Cni.add ~pod_name:name ~node ~publish:[ (port, port) ]
        ~k:(fun ns ->
          start_service node ns;
          target := Some (Ipv4.of_string "10.0.0.2", port);
          service_ready ())
    | `Brfusion ->
      plugin.Cni.add ~pod_name:name ~node ~publish:[] ~k:(fun ns ->
          start_service node ns;
          (match Brfusion.pod_ip (Lazy.force brf_config) ns with
          | Some ip -> target := Some (ip, port)
          | None -> ());
          service_ready ())
    | `Overlay ->
      plugin.Cni.add ~pod_name:(name ^ "-b") ~node ~publish:[] ~k:(fun ns ->
          start_service node ns;
          (match Nest_orch.Cni_overlay.pod_ip (Lazy.force overlay) ns with
          | Some ip -> target := Some (ip, port)
          | None -> ());
          service_ready ())
    | `Hostlo ->
      (* Same pod name every generation: each re-deploy is one more
         fraction, i.e. a fresh queue on the *persisting* reflector — the
         detach/reattach story of §4.  With a standby pool this claims a
         pre-plugged endpoint instead of paying QMP. *)
      plugin.Cni.add ~pod_name:"svc" ~node ~publish:[] ~k:(fun ns ->
          start_service node ns;
          target := Some (Ipv4.localhost, port);
          service_ready ())
  in
  let start_client ns new_exec =
    match workload with
    | Probe -> ensure_probe_sock ns
    | Rr ->
      rr_driver :=
        Some
          (Netperf.udp_rr_driver tb ~cl_ns:ns ~cl_exec:(new_exec "rr-client")
             ~target:(fun () -> !target)
             ~msg_size:64 ~slo ~start:probe_start ~stop:probe_end ())
    | Mc ->
      mc_driver :=
        Some
          (Memcached.drive tb ~cl_ns:ns ~cl_new_exec:new_exec
             ~target:(fun () -> !target)
             ~conns:(if quick then 2 else 4)
             ~slo ~start:probe_start ~stop:probe_end ())
  in
  (match mode with
  | `Nat | `Brfusion ->
    start_client tb.Testbed.client_ns (fun name ->
        Testbed.client_app_exec tb ~name)
  | `Overlay ->
    plugin.Cni.add ~pod_name:"svc-a" ~node:(Testbed.node tb 0) ~publish:[]
      ~k:(fun ns ->
        start_client ns (fun name ->
            Vm.new_app_exec
              (Node.vm (Testbed.node tb 0))
              ~name ~entity:"wl-client"))
  | `Hostlo ->
    plugin.Cni.add ~pod_name:"svc" ~node:(Testbed.node tb 0) ~publish:[]
      ~k:(fun ns ->
        start_client ns (fun name ->
            Vm.new_app_exec
              (Node.vm (Testbed.node tb 0))
              ~name ~entity:"wl-client")));
  (* Warm standby endpoints on the surviving VM before anything fails:
     the failover fraction claims one instead of hot-plugging. *)
  (match mode with
  | `Hostlo when standby > 0 ->
    Hostlo.preprovision (Lazy.force hlo_config) ~node:(Testbed.node tb 0)
      ~pod_name:"svc"
  | _ -> ());
  deploy_server
    (Testbed.node tb (match mode with `Nat | `Brfusion -> 0 | _ -> 1));
  let rec tick () =
    if Engine.now engine < probe_end then begin
      (* Every tick counts as an offered probe: a service whose setup is
         still being retried is just as unavailable as a crashed one. *)
      incr sent;
      Slo.observe_sent slo;
      (match (!probe_sock, !target) with
      | Some sock, Some (ip, p) ->
        Stack.Udp.sendto sock ~dst:ip ~dst_port:p (Payload.raw 64)
      | _ -> ());
      Engine.schedule engine ~label:"chaos:probe" ~delay:probe_period tick
    end
  in
  (match workload with
  | Probe -> Engine.schedule_at engine ~label:"chaos:probe" ~at:probe_start tick
  | Rr | Mc -> ());

  (* ---- the pod-start storm ---- *)
  let ready = Hashtbl.create 16 in
  for i = 1 to k_pods do
    let pod =
      Pod.make
        ~name:(Printf.sprintf "storm-%d" i)
        [ Pod.container ~name:"c" ~cpu:0.4 ~mem:0.3 () ]
    in
    Kube.deploy_pod kube pod
      ~on_ready:(fun d ->
        let n = d.Kube.dep_pod.Pod.pod_name in
        if not (Hashtbl.mem ready n) then
          Hashtbl.replace ready n (Engine.now engine))
      ()
  done;

  (* ---- recovery wiring + the fault plan ---- *)
  let crash_times = ref [] in
  let lost = ref 0 in
  let on_vm_crash dead_vm =
    let vm_name = Vm.name dead_vm in
    crash_times := Engine.now engine :: !crash_times;
    (* Lease GC: the dead VM's pods held addresses out of the bridge
       subnet; their replacements allocate fresh ones. *)
    (match mode with
    | `Brfusion ->
      ignore (Brfusion.release_vm (Lazy.force brf_config) ~vm:dead_vm)
    | _ -> ());
    (match List.assoc_opt vm_name !node_by_vm with
    | None -> ()
    | Some node ->
      let _rescheduled, l =
        Kube.reschedule_node_failure kube ~node ~on_ready:(fun d ->
            let n = d.Kube.dep_pod.Pod.pod_name in
            if not (Hashtbl.mem ready n) then
              Hashtbl.replace ready n (Engine.now engine))
      in
      lost := !lost + l);
    (* Standby failover: the reflector outlives the member VM, so a
       fraction on the surviving VM — claiming a pre-plugged endpoint,
       no QMP on the critical path — restores the service without
       waiting out the restart plus a retry storm. *)
    match mode with
    | `Hostlo when standby > 0 && String.equal vm_name !server_on -> (
      match List.assoc_opt "vm1" !node_by_vm with
      | Some node -> deploy_server node
      | None -> ())
    | _ -> ()
  in
  let on_vm_restart vm' =
    let name = Vm.name vm' in
    let node' = Node.create vm' in
    node_by_vm := (name, node') :: List.remove_assoc name !node_by_vm;
    Kube.add_node kube node';
    match mode with
    | `Hostlo when standby > 0 ->
      (* Service already failed over; just re-warm the pool on the
         rejoining VM for completeness. *)
      Hostlo.preprovision (Lazy.force hlo_config) ~node:node' ~pod_name:"svc"
    | _ -> if String.equal name server_vm then deploy_server node'
  in
  let crash_events =
    List.init trials (fun i ->
        Fault_plan.Vm_crash
          {
            at = probe_start + Time.ms 200 + (i * spacing);
            vm = server_vm;
            restart_after = Some restart_after;
          })
  in
  let noise_events =
    if rate <= 0. then []
    else begin
      let base =
        probe_start + Time.ms 200 + ((trials - 1) * spacing) + Time.ms 700
      in
      let tap =
        match mode with
        | `Hostlo -> "hostlo-svc"
        | `Overlay -> "tap-vm2"
        | `Nat | `Brfusion -> "tap-vm1"
      in
      [
        Fault_plan.Tap_exhaust { at = base; tap; duration = Time.ms 100 };
        Fault_plan.Conntrack_clamp
          { at = base; scope = `Host; capacity = 8; duration = Time.ms 150 };
        Fault_plan.Corrupt_burst
          {
            at = base;
            vm = server_vm;
            prob = Float.min 0.05 (rate /. 10.);
            duration = Time.ms 200;
          };
      ]
    end
  in
  let qmp =
    if rate <= 0. then None
    else
      Some
        (Fault_plan.qmp_rule ~fail_prob:(Float.min 0.45 rate)
           ~timeout_prob:(Float.min 0.2 (rate /. 3.))
           ~partial_prob:(Float.min 0.3 (rate /. 2.))
           ~timeout_ns:(Time.ms 300) ())
  in
  let plan =
    Fault_plan.make ~seed:(Int64.add seed 1000L) ?qmp
      ~events:(crash_events @ noise_events) ()
  in
  let inj = Injector.install ~on_vm_crash ~on_vm_restart plan tb in

  Testbed.run_until tb horizon;

  (* ---- harvest (snapshot before draining) ---- *)
  let sent_count, replies, lat_completions, _wl_lost, skew_p99, corr_p50,
      corr_p99 =
    match workload with
    | Probe -> (!sent, List.rev !recv_times, [], 0, 0., 0., 0.)
    | Rr -> (
      match !rr_driver with
      | None -> (0, [], [], 0, 0., 0., 0.)
      | Some d ->
        let cs = d.Netperf.rrd_completions () in
        let corr = d.Netperf.rrd_corrected () in
        (d.Netperf.rrd_sent (), List.map fst cs, cs, d.Netperf.rrd_lost (),
         Hdr.percentile (d.Netperf.rrd_skew ()) 99.0,
         Hdr.percentile corr 50.0, Hdr.percentile corr 99.0))
    | Mc -> (
      match !mc_driver with
      | None -> (0, [], [], 0, 0., 0., 0.)
      | Some d ->
        let cs = d.Memcached.mcd_completions () in
        let corr = d.Memcached.mcd_corrected () in
        (d.Memcached.mcd_sent (), List.map fst cs, cs,
         d.Memcached.mcd_dropped (),
         Hdr.percentile (d.Memcached.mcd_skew ()) 99.0,
         Hdr.percentile corr 50.0, Hdr.percentile corr 99.0))
  in
  (* A closed loop whose send-time skew outgrows the SLO evaluation
     window has been wedged for longer than one whole reporting
     interval: its completion latencies describe only the requests it
     deigned to send, so mark the cell's latency figures as
     coordinated-omission suspects. *)
  let co_window_us =
    List.fold_left
      (fun acc s -> Float.min acc (Time.to_us_f s.Slo.window))
      infinity slo_specs
  in
  let co_flagged = skew_p99 > co_window_us in
  let crashes = List.rev !crash_times in
  let last_up = match !service_up with [] -> 0 | t :: _ -> t in
  let recovered, unrecovered =
    let rec windows acc miss = function
      | [] -> (List.rev acc, miss)
      | c :: rest ->
        let window_end =
          match rest with [] -> probe_end | c' :: _ -> c'
        in
        (match
           List.find_opt (fun r -> r > c && r <= window_end) replies
         with
        | Some r -> windows (ms_of_ns (r - c) :: acc) miss rest
        | None -> windows acc (miss + 1) rest)
    in
    windows [] 0 crashes
  in
  let metrics = Engine.metrics engine in
  let counter name =
    Metrics.counter_value (Metrics.counter metrics name)
  in
  let summary name =
    match Metrics.find metrics name with
    | Some (Metrics.Summary { vmax; total; _ }) -> (vmax, total)
    | _ -> (0., 0.)
  in
  let ttr = Hashtbl.fold (fun _ at acc -> ms_of_ns at :: acc) ready [] in
  let lats = List.map snd lat_completions in
  let post_lats =
    List.filter_map
      (fun (at, us) -> if at > last_up then Some us else None)
      lat_completions
  in
  let window_sec = Time.to_sec_f (probe_end - probe_start) in
  (* Drain the remaining recovery machinery (late retries, boot
     completions) to quiescence, then audit: these invariants must hold
     at rest, not merely at the horizon snapshot. *)
  Engine.run engine;
  let leaked =
    match mode with
    | `Brfusion ->
      let cfg = Lazy.force brf_config in
      Ipam.in_use (Brfusion.pod_ipam cfg) - Brfusion.live_assignments cfg
    | _ -> 0
  in
  let invariants = Vmm.check_invariants tb.Testbed.vmm in
  let retry_max_attempt, _ = summary "fault.retry_attempt" in
  let _, retry_wait_ms = summary "fault.retry_delay_ms" in
  {
    o_mode = mode_to_string mode;
    o_rate = rate;
    o_workload = workload_to_string workload;
    o_standby = standby;
    o_pods = k_pods;
    o_ready = Hashtbl.length ready;
    o_lost = !lost;
    o_setup_failed = counter "fault.pod_setup_failed";
    o_retries = counter "recovery.hotplug_retries";
    o_ttr_p50_ms = percentile ttr 50.;
    o_ttr_p99_ms = percentile ttr 99.;
    o_sent = sent_count;
    o_recv = List.length replies;
    o_availability =
      (if sent_count = 0 then 0.0
       else float_of_int (List.length replies) /. float_of_int sent_count);
    o_crashes = List.length crashes;
    o_recovered = recovered;
    o_rec_p50_ms = percentile recovered 50.;
    o_rec_p99_ms = percentile recovered 99.;
    o_unrecovered = unrecovered;
    o_goodput =
      (if window_sec <= 0. then 0.
       else float_of_int (List.length lat_completions) /. window_sec);
    o_lat_p50_us = percentile lats 50.;
    o_lat_p99_us = percentile lats 99.;
    o_post_p50_us = percentile post_lats 50.;
    o_post_p99_us = percentile post_lats 99.;
    o_standby_claims = counter "recovery.standby_claimed";
    o_retry_max_attempt = retry_max_attempt;
    o_retry_wait_ms = retry_wait_ms;
    o_leaked_leases = leaked;
    o_invariants = invariants;
    o_slo = Slo.report slo;
    o_slo_lat = Slo.latency slo;
    o_skew_p99_us = skew_p99;
    o_co_flagged = co_flagged;
    o_corr_p50_us = corr_p50;
    o_corr_p99_us = corr_p99;
    o_timeline = Injector.timeline inj;
  }

(* Canonical rendering: everything determinism must cover — the fault
   timeline and every derived statistic.  Digest equality across runs
   and [--jobs] levels is the reproducibility guard CI asserts. *)
let render o =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "%s rate=%.3f pods=%d ready=%d lost=%d setup_failed=%d retries=%d \
        ttr=[%.3f %.3f] sent=%d recv=%d avail=%.6f crashes=%d unrec=%d\n"
       o.o_mode o.o_rate o.o_pods o.o_ready o.o_lost o.o_setup_failed
       o.o_retries o.o_ttr_p50_ms o.o_ttr_p99_ms o.o_sent o.o_recv
       o.o_availability o.o_crashes o.o_unrecovered);
  Buffer.add_string b
    (Printf.sprintf
       "w=%s standby=%d goodput=%.3f lat=[%.3f %.3f] post=[%.3f %.3f] \
        wl_lost=%d claims=%d retry=[%.1f %.3f] leaked=%d\n"
       o.o_workload o.o_standby o.o_goodput o.o_lat_p50_us o.o_lat_p99_us
       o.o_post_p50_us o.o_post_p99_us
       (o.o_sent - o.o_recv)
       o.o_standby_claims o.o_retry_max_attempt o.o_retry_wait_ms
       o.o_leaked_leases);
  List.iter
    (fun inv -> Buffer.add_string b (Printf.sprintf "inv %s\n" inv))
    o.o_invariants;
  (* SLO compliance and the latency sketch are part of the digest: the
     determinism guard must also cover the windowed evaluation and the
     HDR merge inputs. *)
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "slo %s w=%d v=%d worst=%.4f\n" c.Slo.c_name
           c.Slo.c_windows c.Slo.c_violations c.Slo.c_worst_burn))
    o.o_slo;
  Buffer.add_string b
    (Printf.sprintf "slo_lat n=%d p50=%.3f p99=%.3f\n" (Hdr.count o.o_slo_lat)
       (Hdr.percentile o.o_slo_lat 50.0)
       (Hdr.percentile o.o_slo_lat 99.0));
  Buffer.add_string b
    (Printf.sprintf "skew p99=%.3f co=%b corr=[%.3f %.3f]\n" o.o_skew_p99_us
       o.o_co_flagged o.o_corr_p50_us o.o_corr_p99_us);
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf "rec %.6f\n" r))
    o.o_recovered;
  List.iter
    (fun (at, msg) -> Buffer.add_string b (Printf.sprintf "%d %s\n" at msg))
    o.o_timeline;
  Buffer.contents b

let digest o = Digest.to_hex (Digest.string (render o))

let pp_outcome fmt o =
  Format.fprintf fmt
    "%-9s rate %.2f %s%s| storm %d/%d ready (lost %d, failed %d, %d retries) \
     ttr p50 %.1f p99 %.1f ms | avail %.4f (%d/%d) | recovery p50 %.1f p99 \
     %.1f ms (%d/%d recovered)"
    o.o_mode o.o_rate o.o_workload
    (if o.o_standby > 0 then Printf.sprintf " standby=%d " o.o_standby
     else " ")
    o.o_ready o.o_pods o.o_lost o.o_setup_failed o.o_retries o.o_ttr_p50_ms
    o.o_ttr_p99_ms o.o_availability o.o_recv o.o_sent o.o_rec_p50_ms
    o.o_rec_p99_ms
    (List.length o.o_recovered)
    o.o_crashes;
  if not (String.equal o.o_workload "probe") then begin
    Format.fprintf fmt
      " | goodput %.0f op/s lat p50 %.0f p99 %.0f us post p50 %.0f p99 %.0f \
       us"
      o.o_goodput o.o_lat_p50_us o.o_lat_p99_us o.o_post_p50_us
      o.o_post_p99_us;
    Format.fprintf fmt " skew p99 %.0f us%s" o.o_skew_p99_us
      (if o.o_co_flagged then " [COORDINATED OMISSION]" else "");
    (* In a flagged cell the measured percentiles describe only the
       requests the wedged loop deigned to send; print the wrk2
       corrected numbers (measured + own send skew) beside them. *)
    if o.o_co_flagged then
      Format.fprintf fmt " corrected p50 %.0f p99 %.0f us" o.o_corr_p50_us
        o.o_corr_p99_us
  end;
  (match o.o_slo with
  | [] -> ()
  | slos ->
    let ok = List.length (List.filter Slo.compliant slos) in
    Format.fprintf fmt " | slo %d/%d ok" ok (List.length slos));
  if o.o_leaked_leases <> 0 || o.o_invariants <> [] then
    Format.fprintf fmt " | INVARIANT VIOLATIONS: %d leaked, %d broken"
      o.o_leaked_leases
      (List.length o.o_invariants)
