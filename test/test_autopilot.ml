(* Tests for the integrated orchestrator (§7's future work): on-demand VM
   purchase, BrFusion-by-default placement, Hostlo-backed pod splitting. *)

open Nest_net
open Nestfusion
module Time = Nest_sim.Time
module Pod = Nest_orch.Pod
module Node = Nest_orch.Node

let pod name specs = Pod.make ~name (List.map (fun (n, c, m) -> Pod.container ~name:n ~cpu:c ~mem:m ()) specs)

let deploy_sync tb ap p =
  let dep = ref None in
  Autopilot.deploy ap p ~on_ready:(fun d -> dep := Some d);
  Testbed.run_until tb (Nest_sim.Engine.now tb.Testbed.engine + Time.sec 300);
  match !dep with
  | Some d -> d
  | None -> Alcotest.failf "pod %s never became ready" p.Pod.pod_name

let test_whole_placement_uses_brfusion () =
  let tb = Testbed.create ~num_vms:1 () in
  let ap = Autopilot.create tb () in
  let d = deploy_sync tb ap (pod "a" [ ("c1", 3.0, 2.0) ]) in
  (match d.Autopilot.placement with
  | Autopilot.Whole (node, netns) ->
    Alcotest.(check string) "on the existing node" "vm1" (Node.name node);
    (* BrFusion: the pod namespace owns a NIC on the host bridge subnet. *)
    Alcotest.(check bool) "pod has a host-subnet address" true
      (List.exists
         (fun (_, ip, _) ->
           Ipv4.in_subnet (Ipv4.cidr_of_string "10.0.0.0/24") ip)
         (Stack.addrs netns))
  | Autopilot.Split _ -> Alcotest.fail "should not split");
  Alcotest.(check int) "no VM bought" 0 (Autopilot.vms_bought ap);
  Alcotest.(check (float 1e-9)) "reserved" 3.0
    (Node.cpu_requested (List.hd (Autopilot.nodes ap)))

let test_buys_vm_when_full () =
  let tb = Testbed.create ~num_vms:1 () in
  let ap = Autopilot.create tb ~provision_delay:(Time.sec 10) () in
  let _a = deploy_sync tb ap (pod "a" [ ("c1", 4.0, 3.0) ]) in
  let t0 = Nest_sim.Engine.now tb.Testbed.engine in
  let b = deploy_sync tb ap (pod "b" [ ("c1", 4.0, 3.0) ]) in
  Alcotest.(check int) "one VM bought" 1 (Autopilot.vms_bought ap);
  Alcotest.(check int) "fleet grew" 2 (List.length (Autopilot.nodes ap));
  (match b.Autopilot.placement with
  | Autopilot.Whole (node, _) ->
    Alcotest.(check string) "on the new VM" "ap-vm1" (Node.name node)
  | Autopilot.Split _ -> Alcotest.fail "should not split");
  (* Ready no earlier than the provisioning delay. *)
  Alcotest.(check bool) "paid the provisioning delay" true
    (Nest_sim.Engine.now tb.Testbed.engine - t0 >= Time.sec 10)

let test_splits_with_hostlo () =
  let tb = Testbed.create ~num_vms:2 () in
  let ap = Autopilot.create tb () in
  (* Leave 1 cpu free on vm1 and 2 on vm2, then ask for a 3-container
     3-cpu pod: it fits nowhere whole, but the fragments cover it. *)
  let _ = deploy_sync tb ap (pod "fill1" [ ("c", 4.0, 1.0) ]) in
  let _ = deploy_sync tb ap (pod "fill2" [ ("c", 3.0, 1.0) ]) in
  let d =
    deploy_sync tb ap
      (pod "wide" [ ("w1", 1.0, 0.5); ("w2", 1.0, 0.5); ("w3", 1.0, 0.5) ])
  in
  (match d.Autopilot.placement with
  | Autopilot.Whole _ -> Alcotest.fail "expected a split placement"
  | Autopilot.Split fractions ->
    Alcotest.(check bool) "spans several nodes" true
      (List.length fractions >= 2);
    (* Fractions talk over the pod's localhost (the Hostlo tap). *)
    let (_, ns_a), (_, ns_b) = (List.nth fractions 0, List.nth fractions 1) in
    let got = ref false in
    let _srv =
      Stack.Udp.bind ns_b ~port:7777 (fun _ ~src:_ ~src_port:_ _ -> got := true)
    in
    let cl = Stack.Udp.bind ns_a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
    Stack.Udp.sendto cl ~dst:Ipv4.localhost ~dst_port:7777 (Payload.raw 64);
    Testbed.run_until tb (Nest_sim.Engine.now tb.Testbed.engine + Time.sec 2);
    Alcotest.(check bool) "cross-fraction localhost works" true !got);
  Alcotest.(check int) "counted as split" 1 (Autopilot.pods_split ap);
  Alcotest.(check int) "no VM bought (split avoided it)" 0
    (Autopilot.vms_bought ap)

let test_no_split_buys_instead () =
  let tb = Testbed.create ~num_vms:2 () in
  let ap = Autopilot.create tb ~allow_split:false ~provision_delay:(Time.sec 5) () in
  let _ = deploy_sync tb ap (pod "fill1" [ ("c", 4.0, 1.0) ]) in
  let _ = deploy_sync tb ap (pod "fill2" [ ("c", 3.0, 1.0) ]) in
  let d =
    deploy_sync tb ap
      (pod "wide" [ ("w1", 1.0, 0.5); ("w2", 1.0, 0.5); ("w3", 1.0, 0.5) ])
  in
  (match d.Autopilot.placement with
  | Autopilot.Whole (node, _) ->
    Alcotest.(check string) "bought a VM instead" "ap-vm1" (Node.name node)
  | Autopilot.Split _ -> Alcotest.fail "split disabled");
  Alcotest.(check int) "vm bought" 1 (Autopilot.vms_bought ap)

let test_delete_and_scale_down () =
  let tb = Testbed.create ~num_vms:1 () in
  let ap = Autopilot.create tb ~provision_delay:(Time.sec 5) () in
  let a = deploy_sync tb ap (pod "a" [ ("c1", 4.0, 3.0) ]) in
  let b = deploy_sync tb ap (pod "b" [ ("c1", 4.0, 3.0) ]) in
  Alcotest.(check int) "fleet of 2" 2 (List.length (Autopilot.nodes ap));
  Autopilot.delete ap b;
  Alcotest.(check int) "one deployment left" 1
    (List.length (Autopilot.deployments ap));
  let removed = Autopilot.scale_down ap in
  Alcotest.(check int) "released the empty VM" 1 removed;
  Alcotest.(check int) "fleet back to 1" 1 (List.length (Autopilot.nodes ap));
  Autopilot.delete ap a;
  Alcotest.(check int) "all empty now" 1 (Autopilot.scale_down ap)

let test_local_volume_prevents_split () =
  let tb = Testbed.create ~num_vms:2 () in
  let ap = Autopilot.create tb ~provision_delay:(Time.sec 5) () in
  let _ = deploy_sync tb ap (pod "fill1" [ ("c", 4.0, 1.0) ]) in
  let _ = deploy_sync tb ap (pod "fill2" [ ("c", 3.0, 1.0) ]) in
  let wide =
    Pod.make ~name:"wide"
      ~volumes:[ Pod.volume ~name:"scratch" () ]
      [ Pod.container ~name:"w1" ~cpu:1.0 ~mem:0.5 ();
        Pod.container ~name:"w2" ~cpu:1.0 ~mem:0.5 ();
        Pod.container ~name:"w3" ~cpu:1.0 ~mem:0.5 () ]
  in
  let d = deploy_sync tb ap wide in
  (match d.Autopilot.placement with
  | Autopilot.Whole (node, _) ->
    Alcotest.(check string) "local volume forces whole placement (bought)"
      "ap-vm1" (Node.name node);
    Alcotest.(check (list string)) "volume mounted on that VM"
      [ Node.name node ]
      (Pod_resources.Volumes.mounts (Autopilot.volumes ap)
         ~pod:d.Autopilot.dep_tag ~volume:"scratch")
  | Autopilot.Split _ -> Alcotest.fail "a local volume must never be split")

let test_shared_volume_allows_split () =
  let tb = Testbed.create ~num_vms:2 () in
  let ap = Autopilot.create tb () in
  let _ = deploy_sync tb ap (pod "fill1" [ ("c", 4.0, 1.0) ]) in
  let _ = deploy_sync tb ap (pod "fill2" [ ("c", 3.0, 1.0) ]) in
  let wide =
    Pod.make ~name:"wide"
      ~volumes:[ Pod.volume ~name:"data" ~shared_fs:true () ]
      [ Pod.container ~name:"w1" ~cpu:1.0 ~mem:0.5 ();
        Pod.container ~name:"w2" ~cpu:1.0 ~mem:0.5 ();
        Pod.container ~name:"w3" ~cpu:1.0 ~mem:0.5 () ]
  in
  let d = deploy_sync tb ap wide in
  match d.Autopilot.placement with
  | Autopilot.Whole _ -> Alcotest.fail "expected split"
  | Autopilot.Split frs ->
    let mounts =
      Pod_resources.Volumes.mounts (Autopilot.volumes ap)
        ~pod:d.Autopilot.dep_tag ~volume:"data"
    in
    Alcotest.(check int) "VirtFS volume mounted on every fraction's VM"
      (List.length frs) (List.length mounts)

let test_oversized_container_rejected () =
  let tb = Testbed.create ~num_vms:1 () in
  let ap = Autopilot.create tb () in
  Alcotest.check_raises "container bigger than a VM"
    (Failure "Autopilot.deploy: a container of huge exceeds a whole VM")
    (fun () ->
      Autopilot.deploy ap (pod "huge" [ ("c", 8.0, 1.0) ]) ~on_ready:(fun _ -> ()))

let () =
  Alcotest.run "autopilot"
    [ ( "placement",
        [ Alcotest.test_case "whole uses brfusion" `Quick
            test_whole_placement_uses_brfusion;
          Alcotest.test_case "buys when full" `Quick test_buys_vm_when_full;
          Alcotest.test_case "splits with hostlo" `Quick test_splits_with_hostlo;
          Alcotest.test_case "no-split buys" `Quick test_no_split_buys_instead ]
      );
      ( "lifecycle",
        [ Alcotest.test_case "delete + scale down" `Quick
            test_delete_and_scale_down;
          Alcotest.test_case "oversized rejected" `Quick
            test_oversized_container_rejected ] );
      ( "volumes (4.3)",
        [ Alcotest.test_case "local volume prevents split" `Quick
            test_local_volume_prevents_split;
          Alcotest.test_case "shared volume allows split" `Quick
            test_shared_volume_allows_split ] ) ]
