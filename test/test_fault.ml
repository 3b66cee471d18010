(* Tests for the fault-injection subsystem (lib/fault): schedule
   determinism — same seed means the same fault timeline and the same
   outcome digest, sequentially and under domain fan-out — the recovery
   invariants around Hostlo reflector queues, and the audits every
   generated chaos cell must pass. *)

module Time = Nest_sim.Time
module Testbed = Nestfusion.Testbed
module Chaos = Nest_fault.Chaos
module Fault_plan = Nest_fault.Fault_plan
module Tap = Nest_net.Tap
module Vmm = Nest_virt.Vmm

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Fault-plan basics *)

let test_plan_events () =
  let plan =
    Fault_plan.make ~seed:9L
      ~qmp:(Fault_plan.qmp_rule ~fail_prob:0.2 ())
      ~events:
        [ Fault_plan.Vm_crash
            { vm = "vm1"; at = Time.ms 10; restart_after = Some (Time.ms 5) };
          Fault_plan.Tap_exhaust
            { tap = "tap-vm1"; at = Time.ms 2; duration = Time.ms 1 } ]
      ()
  in
  Alcotest.(check bool) "not empty" false (Fault_plan.is_empty plan);
  Alcotest.(check bool) "empty is empty" true (Fault_plan.is_empty Fault_plan.empty);
  Alcotest.(check (list int)) "event times"
    [ Time.ms 10; Time.ms 2 ]
    (List.map Fault_plan.event_at plan.Fault_plan.events)

(* ------------------------------------------------------------------ *)
(* Determinism: same seed => same timeline and same digest. *)

let test_same_seed_same_timeline () =
  let run () =
    Chaos.run_cell ~quick:true ~mode:`Brfusion ~rate:0.3 ~seed:7L ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same digest" (Chaos.digest a) (Chaos.digest b);
  Alcotest.(check (list (pair int string)))
    "same fault timeline" a.Chaos.o_timeline b.Chaos.o_timeline;
  (* The timeline is non-trivial: crash trials are always scheduled. *)
  Alcotest.(check bool) "timeline non-empty" true
    (List.length a.Chaos.o_timeline > 0)

let test_seed_changes_timeline () =
  let a = Chaos.run_cell ~quick:true ~mode:`Brfusion ~rate:0.5 ~seed:7L () in
  let b = Chaos.run_cell ~quick:true ~mode:`Brfusion ~rate:0.5 ~seed:8L () in
  Alcotest.(check bool) "different seed, different digest" true
    (not (String.equal (Chaos.digest a) (Chaos.digest b)))

(* The determinism guard that matters for --jobs N: fanning the same
   cells over domains must not change a single byte of any outcome. *)
let test_jobs_fanout_deterministic () =
  let cells = List.map (fun m -> (m, 0.3)) Chaos.all_modes in
  let digest_of (mode, rate) =
    Chaos.digest (Chaos.run_cell ~quick:true ~mode ~rate ~seed:11L ())
  in
  let seq = List.map digest_of cells in
  let par = Nest_sim.Domain_pool.map ~jobs:4 digest_of cells in
  List.iteri
    (fun i (mode, _) ->
      Alcotest.(check string)
        (Chaos.mode_to_string mode ^ " jobs=1 equals jobs=4")
        (List.nth seq i) (List.nth par i))
    cells

(* ------------------------------------------------------------------ *)
(* Hostlo recovery invariant: a VM crash mid-pod detaches exactly the
   dead VM's reflector queues; the reflector itself survives, and a
   re-added fraction gets a fresh queue. *)

let test_hostlo_crash_no_dangling_queue () =
  let tb = Testbed.create ~num_vms:2 () in
  Testbed.run_until tb (Time.ms 1);
  let config = Nestfusion.Hostlo.make_config tb.Testbed.vmm in
  let plugin = Nestfusion.Hostlo.plugin config in
  let added = ref 0 in
  let add node =
    plugin.Nest_orch.Cni.add ~pod_name:"svc" ~node ~publish:[]
      ~k:(fun _ -> incr added)
  in
  add (Testbed.node tb 0);
  add (Testbed.node tb 1);
  Testbed.run_until tb (Time.sec 1);
  Alcotest.(check int) "both fractions set up" 2 !added;
  let tap =
    match Vmm.find_hostlo tb.Testbed.vmm "hostlo-svc" with
    | Some tap -> tap
    | None -> Alcotest.fail "reflector tap hostlo-svc not found"
  in
  let owners () =
    List.sort_uniq String.compare
      (List.map Tap.queue_owner (Tap.queues tap))
  in
  Alcotest.(check (list string)) "one queue per VM" [ "vm1"; "vm2" ]
    (owners ());
  Vmm.crash_vm tb.Testbed.vmm ~name:"vm2";
  Alcotest.(check (list string)) "dead VM's queue detached" [ "vm1" ]
    (owners ());
  (* Restart the VM and re-add its fraction: the persisting reflector
     grows a fresh queue for the replacement. *)
  let booted = ref None in
  let started =
    Vmm.restart_vm tb.Testbed.vmm ~name:"vm2"
      ~k:(fun vm' -> booted := Some (Nest_orch.Node.create vm'))
      ()
  in
  Alcotest.(check bool) "restart accepted" true started;
  Testbed.run_until tb (Time.sec 1 + Time.ms 500);
  let node' =
    match !booted with
    | Some n -> n
    | None -> Alcotest.fail "restart_vm did not boot"
  in
  add node';
  Testbed.run_until tb (Time.sec 2);
  Alcotest.(check int) "re-added fraction set up" 3 !added;
  Alcotest.(check (list string)) "fresh queue after reattach"
    [ "vm1"; "vm2" ] (owners ())

(* ------------------------------------------------------------------ *)
(* Exactly-once hot-plug: an applied-but-ack-lost Device_add, retried
   with the same id, answers from the reply journal — one NIC, not two. *)

let test_partial_timeout_dedupe () =
  let tb = Testbed.create ~num_vms:1 () in
  Testbed.run_until tb (Time.ms 1);
  let vmm = tb.Testbed.vmm in
  let vm = Testbed.vm tb 0 in
  let first = ref true in
  Vmm.set_qmp_fault vmm
    (Some
       (fun ~vm:_ cmd ->
         match cmd with
         | Nest_virt.Qmp.Device_add _ when !first ->
           first := false;
           Vmm.Partial_timeout (Time.ms 50)
         | _ -> Vmm.Pass));
  let nics0 = List.length (Nest_virt.Vm.nics vm) in
  let replies = ref [] in
  Vmm.execute vmm ~vm
    (Nest_virt.Qmp.Netdev_add { id = "dup"; bridge = "virbr0" })
    (fun _ ->
      let dev_add = Nest_virt.Qmp.Device_add { id = "dup"; netdev = "dup" } in
      Vmm.execute vmm ~vm dev_add (fun r1 ->
          replies := ("first", r1) :: !replies;
          (* The orchestrator's retry of the same logical operation. *)
          Vmm.execute vmm ~vm dev_add (fun r2 ->
              replies := ("retry", r2) :: !replies)));
  Testbed.run_until tb (Time.sec 1);
  Vmm.set_qmp_fault vmm None;
  (match List.assoc_opt "first" !replies with
  | Some (Nest_virt.Qmp.Error _) -> ()
  | _ -> Alcotest.fail "first attempt should lose its ack (Error)");
  (match List.assoc_opt "retry" !replies with
  | Some (Nest_virt.Qmp.Ok_nic _) -> ()
  | _ -> Alcotest.fail "retry should answer Ok_nic from the journal");
  Alcotest.(check int) "exactly one NIC plugged" (nics0 + 1)
    (List.length (Nest_virt.Vm.nics vm));
  (match
     Nest_sim.Metrics.find
       (Nest_sim.Engine.metrics tb.Testbed.engine)
       "qmp.dedupe"
   with
  | Some (Nest_sim.Metrics.Counter n) ->
    Alcotest.(check bool) "dedupe counted" true (n >= 1)
  | _ -> Alcotest.fail "qmp.dedupe metric missing");
  Alcotest.(check (list string)) "vmm invariants hold" []
    (Vmm.check_invariants vmm)

(* Under a fault plan with Partial_timeout probability 0.3 (rate 0.6 maps
   to partial_prob = 0.3), the drained cell must hold the no-leak
   invariants: every IPAM lease belongs to a live pod, no duplicate
   devices, lifecycle tables consistent. *)
let test_partial_faults_no_leak () =
  let o = Chaos.run_cell ~quick:true ~mode:`Brfusion ~rate:0.6 ~seed:21L () in
  Alcotest.(check int) "no leaked IPAM leases" 0 o.Chaos.o_leaked_leases;
  Alcotest.(check (list string)) "vmm invariants hold" [] o.Chaos.o_invariants

(* ------------------------------------------------------------------ *)
(* Generated chaos cells: whatever the (mode, rate, seed, workload,
   standby), a drained cell keeps the exactly-once audits clean and never
   completes more than it sent.  Probe cells cost about 5 ms each, live
   workloads 0.2-0.35 s, so the draw leans on [Probe]. *)

let gen_chaos_cell =
  let open QCheck.Gen in
  let* mode = oneofl Chaos.all_modes in
  let* rate = float_bound_inclusive 1.0 in
  let* seed = int_bound 1_000_000 in
  let* workload = frequencyl [ (8, Chaos.Probe); (1, Chaos.Rr); (1, Chaos.Mc) ] in
  let+ standby = int_range 0 2 in
  (mode, rate, seed, workload, standby)

let print_chaos_cell (mode, rate, seed, workload, standby) =
  Printf.sprintf "mode=%s rate=%g seed=%d workload=%s standby=%d"
    (Chaos.mode_to_string mode) rate seed
    (Chaos.workload_to_string workload) standby

(* Shrink towards the plainest cell one field at a time. *)
let shrink_chaos_cell (mode, rate, seed, workload, standby) yield =
  List.iter
    (fun c -> if c <> (mode, rate, seed, workload, standby) then yield c)
    [ (mode, 0.0, seed, workload, standby);
      (mode, rate /. 2.0, seed, workload, standby);
      (mode, rate, seed, Chaos.Probe, standby);
      (mode, rate, seed, workload, 0) ]

let prop_chaos_cell_audits =
  QCheck.Test.make ~count:24 ~name:"chaos cells keep the audits clean"
    (QCheck.make ~print:print_chaos_cell ~shrink:shrink_chaos_cell
       gen_chaos_cell)
    (fun (mode, rate, seed, workload, standby) ->
      let o =
        Chaos.run_cell ~quick:true ~workload ~standby ~mode ~rate
          ~seed:(Int64.of_int seed) ()
      in
      if o.Chaos.o_invariants <> [] then
        QCheck.Test.fail_reportf "vmm invariants: %s"
          (String.concat "; " o.Chaos.o_invariants);
      if o.Chaos.o_leaked_leases <> 0 then
        QCheck.Test.fail_reportf "%d leaked IPAM leases"
          o.Chaos.o_leaked_leases;
      if o.Chaos.o_recv > o.Chaos.o_sent then
        QCheck.Test.fail_reportf "recv %d > sent %d" o.Chaos.o_recv
          o.Chaos.o_sent;
      true)

let () =
  Alcotest.run "fault"
    [ ( "plan",
        [ Alcotest.test_case "events" `Quick test_plan_events ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same timeline" `Quick
            test_same_seed_same_timeline;
          Alcotest.test_case "seed changes timeline" `Quick
            test_seed_changes_timeline;
          Alcotest.test_case "jobs fan-out identical" `Slow
            test_jobs_fanout_deterministic ] );
      ( "recovery",
        [ Alcotest.test_case "hostlo crash leaves no dangling queue" `Quick
            test_hostlo_crash_no_dangling_queue ] );
      ( "exactly_once",
        [ Alcotest.test_case "partial timeout dedupes on retry" `Quick
            test_partial_timeout_dedupe;
          Alcotest.test_case "partial faults leak nothing" `Slow
            test_partial_faults_no_leak ] );
      ("generated", [ qtest prop_chaos_cell_audits ]) ]
