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
    (Volumes.mounts t ~pod:"p" ~volume:"shared");
  Volumes.unmount t ~pod:"p" ~volume:"shared" ~vm:"vm1";
  Alcotest.(check (list string)) "after unmount" [ "vm2" ]
    (Volumes.mounts t ~pod:"p" ~volume:"shared");
  Alcotest.(check bool) "backend introspection" true
    (Volumes.backend_of t ~pod:"p" ~volume:"shared" = Some Virtfs)

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
  Shm.register t ~pod:"p" ~segment:"ring" ~size_kb:64 Guest_local;
  Shm.attach t ~pod:"p" ~segment:"ring" ~vm:"vm1";
  Shm.attach t ~pod:"p" ~segment:"ring" ~vm:"vm1";
  Alcotest.(check (list string)) "single VM" [ "vm1" ]
    (Shm.attachments t ~pod:"p" ~segment:"ring");
  Alcotest.(check bool) "cross-VM rejected without MemPipe" true
    (try
       Shm.attach t ~pod:"p" ~segment:"ring" ~vm:"vm2";
       false
     with Failure _ -> true)

let test_shm_mempipe_cross_vm () =
  let t = Shm.create () in
  Shm.register t ~pod:"p" ~segment:"pipe" ~size_kb:256 Mempipe;
  Shm.attach t ~pod:"p" ~segment:"pipe" ~vm:"vm1";
  Shm.attach t ~pod:"p" ~segment:"pipe" ~vm:"vm2";
  Alcotest.(check (list string)) "both fractions" [ "vm1"; "vm2" ]
    (Shm.attachments t ~pod:"p" ~segment:"pipe");
  Shm.detach t ~pod:"p" ~segment:"pipe" ~vm:"vm1";
  Alcotest.(check (list string)) "after detach" [ "vm2" ]
    (Shm.attachments t ~pod:"p" ~segment:"pipe")

let test_shm_totals () =
  let t = Shm.create () in
  Shm.register t ~pod:"p" ~segment:"a" ~size_kb:100 Mempipe;
  Shm.register t ~pod:"p" ~segment:"b" ~size_kb:28 Guest_local;
  Shm.register t ~pod:"q" ~segment:"c" ~size_kb:999 Mempipe;
  Alcotest.(check int) "per-pod total" 128 (Shm.total_kb t ~pod:"p");
  Alcotest.(check int) "other pod" 999 (Shm.total_kb t ~pod:"q")

module Time = Nest_sim.Time

type Nest_net.Payload.app_msg += Note of string

let mempipe_world () =
  let tb = Nestfusion.Testbed.create ~num_vms:3 () in
  let shm = Shm.create () in
  let chan =
    Nestfusion.Mempipe.create tb.Nestfusion.Testbed.host shm ~pod:"p"
      ~name:"ring"
  in
  (tb, shm, chan)

let test_mempipe_delivery () =
  let tb, shm, chan = mempipe_world () in
  let a = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 0) in
  let b = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 1) in
  let c = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 2) in
  Alcotest.(check (list string)) "attachments recorded"
    [ "vm1"; "vm2"; "vm3" ]
    (Shm.attachments shm ~pod:"p" ~segment:"ring");
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
  let tb, _, chan = mempipe_world () in
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
  let tb, _, chan = mempipe_world () in
  let a = Nestfusion.Mempipe.attach chan (Nestfusion.Testbed.vm tb 0) in
  Alcotest.check_raises "oversized message"
    (Failure "Mempipe.send: 300000 bytes exceed the 262144-byte ring")
    (fun () -> Nestfusion.Mempipe.send a ~size:300_000 ())

(* --- VirtFS functional model --- *)

let test_virtfs_cross_vm_coherence () =
  let tb = Nestfusion.Testbed.create ~num_vms:2 () in
  let fs = Nestfusion.Virtfs.share tb.Nestfusion.Testbed.host ~name:"podvol" in
  let m1 = Nestfusion.Virtfs.mount fs (Nestfusion.Testbed.vm tb 0) in
  let m2 = Nestfusion.Virtfs.mount fs (Nestfusion.Testbed.vm tb 1) in
  let seen = ref None in
  Nestfusion.Virtfs.write m1 ~path:"/state/leader" ~data:"vm1" ~k:(fun () ->
      Nestfusion.Virtfs.append m1 ~path:"/state/leader" ~data:"+epoch2"
        ~k:(fun () ->
          Nestfusion.Virtfs.read m2 ~path:"/state/leader" ~k:(fun v ->
              seen := v)));
  Nestfusion.Testbed.run_until tb (Time.ms 50);
  Alcotest.(check (option string)) "write in vm1 visible from vm2"
    (Some "vm1+epoch2") !seen;
  Alcotest.(check (list (pair string int))) "listing"
    [ ("/state/leader", 10) ]
    (Nestfusion.Virtfs.files fs);
  Alcotest.(check bool) "ops counted" true (Nestfusion.Virtfs.ops fs >= 3)

let test_virtfs_missing_file () =
  let tb = Nestfusion.Testbed.create ~num_vms:1 () in
  let fs = Nestfusion.Virtfs.share tb.Nestfusion.Testbed.host ~name:"v" in
  let m = Nestfusion.Virtfs.mount fs (Nestfusion.Testbed.vm tb 0) in
  let seen = ref (Some "sentinel") in
  Nestfusion.Virtfs.read m ~path:"/nope" ~k:(fun v -> seen := v);
  Nestfusion.Testbed.run_until tb (Time.ms 50);
  Alcotest.(check (option string)) "absent file" None !seen;
  Alcotest.(check bool) "exists" false (Nestfusion.Virtfs.exists fs ~path:"/nope")

let test_virtfs_ops_cost_time () =
  let tb = Nestfusion.Testbed.create ~num_vms:1 () in
  let fs = Nestfusion.Virtfs.share tb.Nestfusion.Testbed.host ~name:"v" in
  let m = Nestfusion.Virtfs.mount fs (Nestfusion.Testbed.vm tb 0) in
  let t0 = Nest_sim.Engine.now tb.Nestfusion.Testbed.engine in
  let done_at = ref 0 in
  Nestfusion.Virtfs.write m ~path:"/f" ~data:(String.make 4096 'x')
    ~k:(fun () -> done_at := Nest_sim.Engine.now tb.Nestfusion.Testbed.engine);
  Nestfusion.Testbed.run_until tb (Time.ms 50);
  let us = (!done_at - t0) / 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "9p round trip in a plausible band (got %dus)" us)
    true
    (us >= 8 && us <= 60)

let () =
  Alcotest.run "pod-resources"
    [ ( "volumes",
        [ Alcotest.test_case "local single VM" `Quick test_volume_local_single_vm;
          Alcotest.test_case "virtfs cross VM" `Quick test_volume_virtfs_cross_vm;
          Alcotest.test_case "errors" `Quick test_volume_errors ] );
      ( "shared memory",
        [ Alcotest.test_case "guest local" `Quick test_shm_guest_local;
          Alcotest.test_case "mempipe cross VM" `Quick test_shm_mempipe_cross_vm;
          Alcotest.test_case "totals" `Quick test_shm_totals ] );
      ( "mempipe transport",
        [ Alcotest.test_case "delivery" `Quick test_mempipe_delivery;
          Alcotest.test_case "latency" `Quick test_mempipe_latency_beats_network;
          Alcotest.test_case "ring bound" `Quick test_mempipe_ring_bound ] );
      ( "virtfs",
        [ Alcotest.test_case "cross-VM coherence" `Quick
            test_virtfs_cross_vm_coherence;
          Alcotest.test_case "missing file" `Quick test_virtfs_missing_file;
          Alcotest.test_case "op timing" `Quick test_virtfs_ops_cost_time ] ) ]
