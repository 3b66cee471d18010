(* Tests for §4.3's pod-shared resources: volumes and shared memory. *)

open Nestfusion.Pod_resources

let test_volume_local_single_vm () =
  let t = Volumes.create () in
  Volumes.declare t ~pod:"p" ~volume:"data" Local;
  Volumes.mount t ~pod:"p" ~volume:"data" ~vm:"vm1";
  (* Idempotent on the same VM. *)
  Volumes.mount t ~pod:"p" ~volume:"data" ~vm:"vm1";
  Alcotest.(check (list string)) "one mount" [ "vm1" ]
    (Volumes.mounts t ~pod:"p" ~volume:"data");
  Alcotest.(check bool) "second VM rejected" true
    (try
       Volumes.mount t ~pod:"p" ~volume:"data" ~vm:"vm2";
       false
     with Failure _ -> true)

let test_volume_virtfs_cross_vm () =
  let t = Volumes.create () in
  Volumes.declare t ~pod:"p" ~volume:"shared" Virtfs;
  Volumes.mount t ~pod:"p" ~volume:"shared" ~vm:"vm1";
  Volumes.mount t ~pod:"p" ~volume:"shared" ~vm:"vm2";
  Alcotest.(check (list string)) "both VMs" [ "vm1"; "vm2" ]
    (Volumes.mounts t ~pod:"p" ~volume:"shared")

let test_volume_errors () =
  let t = Volumes.create () in
  Volumes.declare t ~pod:"p" ~volume:"v" Local;
  Alcotest.(check bool) "duplicate declare" true
    (try
       Volumes.declare t ~pod:"p" ~volume:"v" Virtfs;
       false
     with Failure _ -> true);
  Alcotest.(check bool) "unknown volume" true
    (try
       Volumes.mount t ~pod:"p" ~volume:"ghost" ~vm:"vm1";
       false
     with Failure _ -> true)

let test_shm_guest_local () =
  let t = Shm.create () in
  Shm.register t ~pod:"p" ~segment:"ring" Guest_local;
  Shm.attach t ~pod:"p" ~segment:"ring" ~vm:"vm1";
  (* Idempotent on the same VM. *)
  Shm.attach t ~pod:"p" ~segment:"ring" ~vm:"vm1";
  Alcotest.(check bool) "cross-VM rejected without MemPipe" true
    (try
       Shm.attach t ~pod:"p" ~segment:"ring" ~vm:"vm2";
       false
     with Failure _ -> true)

let test_shm_mempipe_cross_vm () =
  let t = Shm.create () in
  Shm.register t ~pod:"p" ~segment:"pipe" Mempipe;
  Shm.attach t ~pod:"p" ~segment:"pipe" ~vm:"vm1";
  Shm.attach t ~pod:"p" ~segment:"pipe" ~vm:"vm2";
  Alcotest.(check bool) "unknown segment rejected" true
    (try
       Shm.attach t ~pod:"p" ~segment:"ghost" ~vm:"vm1";
       false
     with Failure _ -> true)

module Time = Nest_sim.Time

type Nest_net.Payload.app_msg += Note of string

let mempipe_world () =
  let tb = Nestfusion.Testbed.create ~num_vms:3 () in
  let chan =
    Nestfusion.Mempipe.create tb.Nestfusion.Testbed.host (Shm.create ())
      ~pod:"p" ~name:"ring"
  in
  (tb, chan)

let test_mempipe_delivery () =
  let tb, chan = mempipe_world () in
  let a = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 0) in
  let b = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 1) in
  let c = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 2) in
  let got_b = ref [] and got_c = ref [] and got_a = ref [] in
  let collect cell ~size:_ ~msg =
    match msg with Some (Note s) -> cell := s :: !cell | _ -> ()
  in
  Nestfusion.Mempipe.set_on_recv a (collect got_a);
  Nestfusion.Mempipe.set_on_recv b (collect got_b);
  Nestfusion.Mempipe.set_on_recv c (collect got_c);
  Nestfusion.Mempipe.send a ~size:512 ~msg:(Note "hi") ();
  Nestfusion.Testbed.run_until tb (Time.ms 10);
  Alcotest.(check (list string)) "b received" [ "hi" ] !got_b;
  Alcotest.(check (list string)) "c received" [ "hi" ] !got_c;
  Alcotest.(check (list string)) "sender does not hear itself" [] !got_a;
  Alcotest.(check int) "sent counter" 1 (Nestfusion.Mempipe.sent chan);
  Alcotest.(check int) "delivered to both peers" 2
    (Nestfusion.Mempipe.delivered chan)

let test_mempipe_latency_beats_network () =
  let tb, chan = mempipe_world () in
  let a = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 0) in
  let b = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 1) in
  let t0 = ref 0 and rtt = ref 0 in
  Nestfusion.Mempipe.set_on_recv b (fun ~size ~msg:_ ->
      Nestfusion.Mempipe.send b ~size ());
  Nestfusion.Mempipe.set_on_recv a (fun ~size:_ ~msg:_ ->
      rtt := Nest_sim.Engine.now tb.Nestfusion.Testbed.engine - !t0);
  t0 := Nest_sim.Engine.now tb.Nestfusion.Testbed.engine;
  Nestfusion.Mempipe.send a ~size:1024 ();
  Nestfusion.Testbed.run_until tb (Time.ms 10);
  Alcotest.(check bool)
    (Printf.sprintf "shared-memory RTT well under virtio paths (got %dus)"
       (!rtt / 1000))
    true
    (!rtt > 0 && !rtt < Nest_sim.Time.us 25)

let test_mempipe_ring_bound () =
  let tb, chan = mempipe_world () in
  let a = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 0) in
  Alcotest.check_raises "oversized message"
    (Failure "Mempipe.send: 300000 bytes exceed the 262144-byte ring")
    (fun () -> Nestfusion.Mempipe.send a ~size:300_000 ())

let () =
  Alcotest.run "pod-resources"
    [ ( "volumes",
        [ Alcotest.test_case "local single VM" `Quick test_volume_local_single_vm;
          Alcotest.test_case "virtfs cross VM" `Quick test_volume_virtfs_cross_vm;
          Alcotest.test_case "errors" `Quick test_volume_errors ] );
      ( "shared memory",
        [ Alcotest.test_case "guest local" `Quick test_shm_guest_local;
          Alcotest.test_case "mempipe cross VM" `Quick test_shm_mempipe_cross_vm ] );
      ( "mempipe transport",
        [ Alcotest.test_case "delivery" `Quick test_mempipe_delivery;
          Alcotest.test_case "latency" `Quick test_mempipe_latency_beats_network;
          Alcotest.test_case "ring bound" `Quick test_mempipe_ring_bound ] ) ]
