(* Tests for the VM lifecycle state machine (lib/virt/vmm.ml): random
   legal/illegal transition sequences never take the machine outside its
   four states or trip an illegal transition, and the two directed races
   — crash landing inside a restart's boot window, and a restart racing
   a Hostlo queue detach — resolve to consistent state. *)

module Time = Nest_sim.Time
module Testbed = Nestfusion.Testbed
module Vmm = Nest_virt.Vmm
module Tap = Nest_net.Tap

let check_consistent ?(msg = "invariants hold") tb =
  Alcotest.(check int) "no illegal transitions" 0
    (Vmm.illegal_transitions tb.Testbed.vmm);
  Alcotest.(check (list string)) msg [] (Vmm.check_invariants tb.Testbed.vmm)

(* ------------------------------------------------------------------ *)
(* Property: random sequences of crash/restart requests — many of them
   illegal for the state the VM happens to be in — are either performed
   (legal edge) or refused (restart_vm returns false, crash_vm no-ops).
   The machine itself never records an illegal transition, and after the
   dust settles the cross-table invariants hold. *)

let legal_restart st = st = Some Vmm.Down

let test_random_transition_sequences () =
  List.iter
    (fun seed ->
      let tb = Testbed.create ~num_vms:2 ~seed:(Int64.of_int seed) () in
      Testbed.run_until tb (Time.ms 1);
      let vmm = tb.Testbed.vmm in
      let rng = Random.State.make [| seed |] in
      let t = ref (Time.ms 1) in
      for _ = 1 to 60 do
        let name = if Random.State.bool rng then "vm1" else "vm2" in
        (match Random.State.int rng 3 with
        | 0 -> Vmm.crash_vm vmm ~name
        | 1 ->
          let st = Vmm.lifecycle vmm name in
          let accepted = Vmm.restart_vm vmm ~name ~k:(fun _ -> ()) () in
          Alcotest.(check bool)
            (Printf.sprintf "restart accepted iff Down (seed %d)" seed)
            (legal_restart st) accepted
        | _ ->
          (* Advance virtual time so boot windows can complete (or be
             crashed into) at random phases. *)
          t := !t + Time.ms (1 + Random.State.int rng 150);
          Testbed.run_until tb !t);
        (match Vmm.lifecycle vmm name with
        | Some (Vmm.Running | Vmm.Crashing | Vmm.Down | Vmm.Restarting) -> ()
        | None -> Alcotest.fail (name ^ " lost its lifecycle entry"));
        Alcotest.(check int)
          (Printf.sprintf "no illegal transitions (seed %d)" seed)
          0
          (Vmm.illegal_transitions vmm)
      done;
      (* Park everything in Running for the final invariant sweep. *)
      t := !t + Time.sec 1;
      Testbed.run_until tb !t;
      List.iter
        (fun name ->
          if Vmm.lifecycle vmm name = Some Vmm.Down then
            ignore (Vmm.restart_vm vmm ~name ~k:(fun _ -> ()) ()))
        [ "vm1"; "vm2" ];
      Testbed.run_until tb (!t + Time.sec 1);
      check_consistent ~msg:(Printf.sprintf "invariants hold (seed %d)" seed)
        tb)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Directed: a crash landing inside the boot window cancels the pending
   boot (its continuation never fires), parks the VM back at Down, and a
   later restart still works. *)

let test_crash_during_restart () =
  let tb = Testbed.create ~num_vms:1 () in
  Testbed.run_until tb (Time.ms 1);
  let vmm = tb.Testbed.vmm in
  Vmm.crash_vm vmm ~name:"vm1";
  Alcotest.(check bool) "down after crash" true
    (Vmm.lifecycle vmm "vm1" = Some Vmm.Down);
  let booted = ref false in
  let ok = Vmm.restart_vm vmm ~name:"vm1" ~k:(fun _ -> booted := true) () in
  Alcotest.(check bool) "restart accepted" true ok;
  Alcotest.(check bool) "restarting during boot window" true
    (Vmm.lifecycle vmm "vm1" = Some Vmm.Restarting);
  (* Default boot_delay is 100 ms; crash at +50 ms, mid-boot. *)
  Testbed.run_until tb (Time.ms 51);
  Vmm.crash_vm vmm ~name:"vm1";
  Testbed.run_until tb (Time.ms 500);
  Alcotest.(check bool) "cancelled boot never fires" false !booted;
  Alcotest.(check bool) "back down after mid-boot crash" true
    (Vmm.lifecycle vmm "vm1" = Some Vmm.Down);
  let ok2 = Vmm.restart_vm vmm ~name:"vm1" ~k:(fun _ -> booted := true) () in
  Alcotest.(check bool) "second restart accepted" true ok2;
  Testbed.run_until tb (Time.sec 1);
  Alcotest.(check bool) "second restart boots" true !booted;
  Alcotest.(check bool) "running again" true
    (Vmm.lifecycle vmm "vm1" = Some Vmm.Running);
  check_consistent tb

(* ------------------------------------------------------------------ *)
(* Directed: restart issued at the same virtual instant as a crash that
   detaches the VM's Hostlo reflector queue.  The detach must complete
   against the dead incarnation, the reflector survives, and the
   restarted VM's re-added fraction gets a fresh queue — no queue ever
   points at a non-Running VM. *)

let test_restart_during_hostlo_detach () =
  let tb = Testbed.create ~num_vms:2 () in
  Testbed.run_until tb (Time.ms 1);
  let vmm = tb.Testbed.vmm in
  let config = Nestfusion.Hostlo.make_config vmm in
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
    match Vmm.find_tap vmm "hostlo-svc" with
    | Some tap -> tap
    | None -> Alcotest.fail "reflector tap hostlo-svc not found"
  in
  let owners () =
    List.sort_uniq String.compare (List.map Tap.queue_owner (Tap.queues tap))
  in
  Alcotest.(check (list string)) "one queue per VM" [ "vm1"; "vm2" ]
    (owners ());
  (* Crash and restart back-to-back, zero virtual time apart: the
     restart rides on the tail of the detach. *)
  let booted = ref None in
  Vmm.crash_vm vmm ~name:"vm2";
  let ok =
    Vmm.restart_vm vmm ~name:"vm2"
      ~k:(fun vm' -> booted := Some (Nest_orch.Node.create vm'))
      ()
  in
  Alcotest.(check bool) "immediate restart accepted" true ok;
  Alcotest.(check (list string)) "queue detached despite pending boot"
    [ "vm1" ] (owners ());
  Testbed.run_until tb (Time.sec 2);
  let node' =
    match !booted with
    | Some n -> n
    | None -> Alcotest.fail "restart_vm did not boot"
  in
  add node';
  Testbed.run_until tb (Time.sec 3);
  Alcotest.(check int) "re-added fraction set up" 3 !added;
  Alcotest.(check (list string)) "fresh queue on the new incarnation"
    [ "vm1"; "vm2" ] (owners ());
  check_consistent tb

let () =
  Alcotest.run "lifecycle"
    [ ( "property",
        [ Alcotest.test_case "random transition sequences" `Slow
            test_random_transition_sequences ] );
      ( "directed",
        [ Alcotest.test_case "crash during restart" `Quick
            test_crash_during_restart;
          Alcotest.test_case "restart during hostlo detach" `Quick
            test_restart_during_hostlo_detach ] ) ]
