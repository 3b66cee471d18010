(* Tests for the container engine and the orchestrator. *)

open Nest_net
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Docker = Nest_container.Engine
module Image = Nest_container.Image
module Boot_model = Nest_container.Boot_model
open Nest_orch

let qtest = QCheck_alcotest.to_alcotest
let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

let world ?(num_vms = 1) () =
  let tb = Nestfusion.Testbed.create ~num_vms () in
  Nestfusion.Testbed.run_until tb (Time.ms 1);
  tb

(* ------------------------------------------------------------------ *)
(* Image / boot model *)

let test_image_pull () =
  let rng = Nest_sim.Prng.create 1L in
  let img = Image.make ~name:"big" ~size_mb:400 in
  Alcotest.(check int) "cached pull is free" 0
    (Image.pull_delay_ns img ~cached:true ~rng);
  let d = Image.pull_delay_ns img ~cached:false ~rng in
  Alcotest.(check bool) "cold pull takes seconds" true
    (d > Time.sec 5 && d < Time.sec 30)

let test_boot_model_shapes =
  QCheck.Test.make ~name:"boot phases are positive; NAT pays network setup"
    ~count:200 QCheck.int64
    (fun seed ->
      let rng = Nest_sim.Prng.create seed in
      let nat = Boot_model.sample rng ~network:(`Bridge_nat 8) in
      let brf = Boot_model.sample rng ~network:`Brfusion in
      nat.Boot_model.runtime_ns > 0
      && nat.Boot_model.app_ns > 0
      && nat.Boot_model.network_ns > 0
      && brf.Boot_model.network_ns = 0)

let test_boot_network_grows_with_rules () =
  let rng = Nest_sim.Prng.create 3L in
  let avg n =
    let total = ref 0 in
    for _ = 1 to 200 do
      total :=
        !total + (Boot_model.sample rng ~network:(`Bridge_nat n)).Boot_model.network_ns
    done;
    !total / 200
  in
  Alcotest.(check bool) "100 rules cost more than 0" true (avg 100 > avg 0)

(* ------------------------------------------------------------------ *)
(* Docker engine *)

let test_docker_lifecycle_and_boot_duration () =
  let tb = world () in
  let vm = Nestfusion.Testbed.vm tb 0 in
  let docker = Node.docker (Nestfusion.Testbed.node tb 0) in
  let netns = Nest_virt.Vm.new_netns vm ~name:"c1" () in
  let ready = ref None in
  let c =
    Docker.run docker
      ~image:(Image.make ~name:"alpine" ~size_mb:8)
      ~netns
      ~net_setup:(fun k -> Docker.nat_net_setup docker ~netns ~publish:[] k)
      ~on_ready:(fun c -> ready := Some c)
      ()
  in
  Alcotest.(check bool) "creating" true (Docker.state c = `Creating);
  Alcotest.(check bool) "no duration yet" true (Docker.boot_duration_ns c = None);
  Nestfusion.Testbed.run_until tb (Time.sec 20);
  Alcotest.(check bool) "became ready" true (!ready <> None);
  Alcotest.(check bool) "running" true (Docker.state c = `Running);
  (match Docker.boot_duration_ns c with
  | Some d ->
    Alcotest.(check bool)
      (Printf.sprintf "boot in a docker-like band (got %.0f ms)" (Time.to_ms_f d))
      true
      (d > Time.ms 100 && d < Time.sec 3)
  | None -> Alcotest.fail "no boot duration");
  Alcotest.(check int) "listed" 1 (List.length (Docker.containers docker));
  Docker.stop docker c;
  Alcotest.(check bool) "stopped" true (Docker.state c = `Stopped);
  Alcotest.(check int) "unlisted" 0 (List.length (Docker.containers docker))

let test_docker_nat_connectivity () =
  (* A NAT-networked container must reach its VM's gateway and be
     reachable from the host client through the published port. *)
  let tb = world () in
  let vm = Nestfusion.Testbed.vm tb 0 in
  let docker = Node.docker (Nestfusion.Testbed.node tb 0) in
  let netns = Nest_virt.Vm.new_netns vm ~name:"web" () in
  let ready = ref false in
  Docker.nat_net_setup docker ~netns ~publish:[ (8080, 80) ] (fun () ->
      ready := true);
  Nestfusion.Testbed.run_until tb (Time.sec 2);
  Alcotest.(check bool) "net setup done" true !ready;
  (* Container -> docker0 gateway. *)
  let got_gw = ref false in
  Stack.ping netns ~dst:(ip "172.17.0.1") ~on_reply:(fun ~rtt_ns:_ ->
      got_gw := true);
  Nestfusion.Testbed.run_until tb (Time.sec 3);
  Alcotest.(check bool) "container reaches docker0 gateway" true !got_gw;
  (* Client -> published port, DNAT into the container. *)
  let got = ref false in
  let _srv =
    Stack.Udp.bind netns ~port:80 (fun _ ~src:_ ~src_port:_ _ -> got := true)
  in
  let cl = Stack.Udp.bind tb.Nestfusion.Testbed.client_ns ~port:0
      (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Stack.Udp.sendto cl ~dst:(ip "10.0.0.2") ~dst_port:8080 (Payload.raw 32);
  Nestfusion.Testbed.run_until tb (Time.sec 4);
  Alcotest.(check bool) "published port reaches container" true !got

let test_docker_armed_netfilter () =
  let tb = world () in
  let vm = Nestfusion.Testbed.vm tb 0 in
  let docker = Node.docker (Nestfusion.Testbed.node tb 0) in
  let nf = Stack.nf (Nest_virt.Vm.ns vm) in
  let rules_before =
    List.fold_left
      (fun a h -> a + Netfilter.rule_count nf h)
      0
      [ Netfilter.Prerouting; Netfilter.Forward; Netfilter.Postrouting ]
  in
  Alcotest.(check int) "pristine VM has no rules" 0 rules_before;
  Docker.nat_net_setup docker ~netns:(Nest_virt.Vm.new_netns vm ~name:"c" ()) ~publish:[] ignore;
  let rules_after =
    List.fold_left
      (fun a h -> a + Netfilter.rule_count nf h)
      0
      [ Netfilter.Prerouting; Netfilter.Forward; Netfilter.Postrouting ]
  in
  Alcotest.(check bool) "docker installs its chains" true (rules_after >= 7)

(* ------------------------------------------------------------------ *)
(* Orchestrator *)

let test_node_reservation () =
  let tb = world () in
  let node = Nestfusion.Testbed.node tb 0 in
  Alcotest.(check (float 1e-9)) "cpu capacity from vcpus" 5.0 (Node.cpu_capacity node);
  Alcotest.(check (float 1e-9)) "mem capacity GB" 4.0 (Node.mem_capacity node);
  Alcotest.(check bool) "fits" true (Node.fits node ~cpu:5.0 ~mem:4.0);
  Node.reserve node ~cpu:3.0 ~mem:2.0;
  Alcotest.(check bool) "remaining fits" true (Node.fits node ~cpu:2.0 ~mem:2.0);
  Alcotest.(check bool) "overcommit rejected" false
    (Node.fits node ~cpu:2.5 ~mem:1.0);
  Alcotest.check_raises "reserve raises on overcommit"
    (Invalid_argument "Node.reserve: overcommit on vm1") (fun () ->
      Node.reserve node ~cpu:3.0 ~mem:1.0);
  Node.release node ~cpu:3.0 ~mem:2.0;
  Alcotest.(check (float 1e-9)) "released" 0.0 (Node.cpu_requested node)

let test_scheduler_policies () =
  let tb = world ~num_vms:2 () in
  let n1 = Nestfusion.Testbed.node tb 0 and n2 = Nestfusion.Testbed.node tb 1 in
  Node.reserve n1 ~cpu:3.0 ~mem:1.0;
  (* most requested consolidates onto the busier node. *)
  (match Scheduler.most_requested [ n1; n2 ] ~cpu:1.0 ~mem:1.0 with
  | Some n -> Alcotest.(check string) "most-requested" "vm1" (Node.name n)
  | None -> Alcotest.fail "no node");
  (* When the busy node can't fit, fall over to the other. *)
  (match Scheduler.most_requested [ n1; n2 ] ~cpu:3.0 ~mem:1.0 with
  | Some n -> Alcotest.(check string) "feasibility first" "vm2" (Node.name n)
  | None -> Alcotest.fail "no node");
  Alcotest.(check bool) "nothing fits" true
    (Scheduler.most_requested [ n1; n2 ] ~cpu:99.0 ~mem:1.0 = None)

(* Placement index: the same node as the fold, with a fraction of the
   work.  The nodes sit on one bare host (no testbed, no datapath) so a
   case can hold hundreds of them. *)
let bare_nodes shapes =
  let host =
    Nest_virt.Host.create (Engine.create ()) (Nest_sim.Cpu_account.create ())
      ~name:"h" ()
  in
  List.mapi
    (fun i (vcpus, mem_mb) ->
      Node.create
        (Nest_virt.Vm.create host ~name:(Printf.sprintf "vm%d" i) ~vcpus
           ~mem_mb))
    shapes

(* Places through the index and checks it chose the fold's node. *)
let place_checked index nodes ~cpu ~mem =
  let expect = Scheduler.most_requested nodes ~cpu ~mem in
  let got = Scheduler.Index.place index ~cpu ~mem in
  let same =
    match (expect, got) with
    | None, None -> true
    | Some n, Some i -> Scheduler.Index.node index i == n
    | None, Some _ | Some _, None -> false
  in
  (same, got)

let test_index_equals_fold =
  QCheck.Test.make ~name:"index places exactly where the fold does" ~count:40
    QCheck.(pair (int_range 1 600) int)
    (fun (n, seed) ->
      let rng = Nest_sim.Prng.create (Int64.of_int seed) in
      let pick l = List.nth l (Nest_sim.Prng.int rng (List.length l)) in
      let shapes =
        List.init n (fun _ ->
            (pick [ 1; 2; 4; 5; 8; 16 ], pick [ 1024; 2048; 4096; 8192 ]))
      in
      let nodes = bare_nodes shapes in
      let index = Scheduler.Index.create nodes in
      let live = ref [] in
      (* Quarter-unit requests make exact fraction ties common; the
         others exercise arbitrary floats. *)
      let demand () =
        if Nest_sim.Prng.int rng 2 = 1 then
          float_of_int (Nest_sim.Prng.int rng 9) *. 0.25
        else Nest_sim.Prng.range_float rng 0.0 3.0
      in
      let ok = ref true in
      for _ = 1 to 400 do
        match Nest_sim.Prng.int rng 10 with
        | 0 ->
          let nd = pick nodes in
          Node.set_ready nd (not (Node.ready nd))
        | 1 | 2 | 3 when !live <> [] ->
          let ((i, cpu, mem) as p) = pick !live in
          live := List.filter (fun q -> q != p) !live;
          Scheduler.Index.release index i ~cpu ~mem
        | _ -> (
          let cpu = demand () and mem = demand () in
          let same, got = place_checked index nodes ~cpu ~mem in
          if not same then ok := false;
          match got with
          | Some i -> live := (i, cpu, mem) :: !live
          | None -> ())
      done;
      !ok)

let test_index_work () =
  (* Fleet-like churn: fleet-shaped nodes (5 vCPU, 4 GB), trace pods
     scaled to 1.5x the capacity, exponential lifetimes of a third of
     the arrival span.  The fold examines all 768 nodes per placement;
     the index must visit at most an eighth of them on average. *)
  let n = 768 in
  let nodes = bare_nodes (List.init n (fun _ -> (5, 4096))) in
  let index = Scheduler.Index.create nodes in
  let users = Nest_traces.Trace_gen.generate ~seed:42L ~users:256 in
  let pods =
    List.concat_map
      (fun u ->
        List.map
          (fun p -> (Nest_traces.Trace.pod_cpu p, Nest_traces.Trace.pod_mem p))
          u.Nest_traces.Trace.pods)
      users
    |> Array.of_list
  in
  let npods = Array.length pods in
  let sum f = Array.fold_left (fun a p -> a +. f p) 0.0 pods in
  let scale_cpu = 1.5 *. 5.0 *. float_of_int n /. sum fst in
  let scale_mem = 1.5 *. 4.0 *. float_of_int n /. sum snd in
  let rng = Nest_sim.Prng.create 7L in
  let departures = Nest_sim.Heap.create ~dummy:(0, 0.0, 0.0) () in
  let ok = ref true and placed = ref 0 in
  Array.iteri
    (fun t (c, m) ->
      let rec depart () =
        let at = Nest_sim.Heap.min_prio departures in
        if at >= 0 && at <= t then begin
          let i, cpu, mem = Nest_sim.Heap.pop_value departures in
          Scheduler.Index.release index i ~cpu ~mem;
          depart ()
        end
      in
      depart ();
      let cpu = c *. scale_cpu and mem = m *. scale_mem in
      let same, got = place_checked index nodes ~cpu ~mem in
      if not same then ok := false;
      match got with
      | Some i ->
        incr placed;
        let life =
          Nest_sim.Dist.exponential rng ~mean:(float_of_int npods /. 3.0)
        in
        Nest_sim.Heap.push departures ~tag:0 ~prio:(t + 1 + int_of_float life)
          (i, cpu, mem)
      | None -> ())
    pods;
  let per_place =
    float_of_int (Scheduler.Index.examined index) /. float_of_int npods
  in
  Alcotest.(check bool) "index = fold on every arrival" true !ok;
  Alcotest.(check bool) "the cluster fills and churns" true
    (!placed > n && !placed < npods);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f nodes examined per placement <= %d" per_place (n / 8))
    true
    (per_place <= float_of_int (n / 8))

(* Index allocation: [release] boxes nothing and [place] allocates only
   its [Some] (2 words).  Fleet-shaped nodes take rounds of random
   requests until they fill, then give every one back, so the calls
   rotate and re-pull the tree.  Demands sit boxed in tuples, so the
   loop itself allocates nothing per call; the minor-word counter is
   exact on one domain.  Measured: 1.58 words per place (79 % of the
   calls succeed) and 0.00 per release; each bound is the measured
   value + 1.  One float let-bound across a branch in the tree's pull
   boxes on every rotation, some 300 words a call. *)
let place_words_bound = 2.6
let release_words_bound = 1.0

let test_index_allocation () =
  let n = 256 in
  let index =
    Scheduler.Index.create (bare_nodes (List.init n (fun _ -> (5, 4096))))
  in
  let rng = Nest_sim.Prng.create 11L in
  let demands =
    Array.init 2000 (fun _ ->
        ( Nest_sim.Prng.range_float rng 0.05 1.5,
          Nest_sim.Prng.range_float rng 0.05 1.2 ))
  in
  let pos = Array.make (Array.length demands) (-1) in
  let places = ref 0 and releases = ref 0 in
  let place_words = ref 0.0 and release_words = ref 0.0 in
  for _round = 1 to 5 do
    let w0 = Gc.minor_words () in
    Array.iteri
      (fun k (cpu, mem) ->
        match Scheduler.Index.place index ~cpu ~mem with
        | Some i -> pos.(k) <- i
        | None -> pos.(k) <- -1)
      demands;
    let w1 = Gc.minor_words () in
    Array.iteri
      (fun k (cpu, mem) ->
        let i = pos.(k) in
        if i >= 0 then Scheduler.Index.release index i ~cpu ~mem)
      demands;
    let w2 = Gc.minor_words () in
    places := !places + Array.length demands;
    Array.iter (fun i -> if i >= 0 then incr releases) pos;
    place_words := !place_words +. (w1 -. w0);
    release_words := !release_words +. (w2 -. w1)
  done;
  let per_place = !place_words /. float_of_int !places in
  let per_release = !release_words /. float_of_int !releases in
  Alcotest.(check bool) "the rounds fill the fleet" true
    (!releases > n && !releases < !places);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per place <= %.1f" per_place place_words_bound)
    true (per_place <= place_words_bound);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per release <= %.0f" per_release
       release_words_bound)
    true (per_release <= release_words_bound)

let test_kube_deploy_pod () =
  let tb = world ~num_vms:2 () in
  let kube =
    Kube.create tb.Nestfusion.Testbed.engine ~default_cni:(Cni_bridge.plugin ())
  in
  Kube.add_node kube (Nestfusion.Testbed.node tb 0);
  Kube.add_node kube (Nestfusion.Testbed.node tb 1);
  let pod =
    Pod.make ~name:"web"
      [ Pod.container ~name:"nginx" ~cpu:2.0 ~mem:1.0 ();
        Pod.container ~name:"sidecar" ~cpu:0.5 ~mem:0.5 () ]
  in
  Alcotest.(check (float 1e-9)) "pod cpu" 2.5 (Pod.cpu_total pod);
  let dep = ref None in
  Kube.deploy_pod kube pod ~on_ready:(fun d -> dep := Some d) ();
  Nestfusion.Testbed.run_until tb (Time.sec 30);
  match !dep with
  | None -> Alcotest.fail "pod never became ready"
  | Some d ->
    Alcotest.(check int) "both containers" 2 (List.length d.Kube.dep_containers);
    Alcotest.(check bool) "containers run in pod ns" true
      (List.for_all
         (fun c -> Docker.netns c == d.Kube.dep_ns)
         d.Kube.dep_containers);
    Alcotest.(check (float 1e-9)) "resources reserved" 2.5
      (Node.cpu_requested d.Kube.dep_node)

let test_kube_no_fit () =
  let tb = world () in
  let kube =
    Kube.create tb.Nestfusion.Testbed.engine ~default_cni:(Cni_bridge.plugin ())
  in
  Kube.add_node kube (Nestfusion.Testbed.node tb 0);
  let monster = Pod.make ~name:"huge" [ Pod.container ~name:"x" ~cpu:64.0 () ] in
  Alcotest.check_raises "no node fits"
    (Failure "Kube.deploy_pod: no node fits huge") (fun () ->
      Kube.deploy_pod kube monster ~on_ready:(fun _ -> ()) ())

let docker0_subnet = Ipv4.cidr_of_string "172.17.0.0/16"

let test_nat_ip_released_on_stop () =
  let tb = world () in
  let vm = Nestfusion.Testbed.vm tb 0 in
  let docker = Node.docker (Nestfusion.Testbed.node tb 0) in
  let boot i =
    let netns = Nest_virt.Vm.new_netns vm ~name:(Printf.sprintf "c%d" i) () in
    let ready = ref None in
    let c =
      Docker.run docker
        ~image:(Image.make ~name:"alpine" ~size_mb:8)
        ~netns
        ~net_setup:(fun k -> Docker.nat_net_setup docker ~netns ~publish:[] k)
        ~on_ready:(fun c -> ready := Some c)
        ()
    in
    Nestfusion.Testbed.run_until tb
      (Nest_sim.Engine.now tb.Nestfusion.Testbed.engine + Time.sec 20);
    ignore !ready;
    (c, netns)
  in
  let c1, ns1 = boot 1 in
  let ip1 =
    match Stack.addrs ns1 with
    | (_, ip, _) :: _ when Ipv4.in_subnet docker0_subnet ip -> Some ip
    | _ ->
      List.find_map
        (fun (_, ip, _) ->
          if Ipv4.in_subnet docker0_subnet ip then Some ip else None)
        (Stack.addrs ns1)
  in
  Docker.stop docker c1;
  let _, ns2 = boot 2 in
  let ip2 =
    List.find_map
      (fun (_, ip, _) ->
        if Ipv4.in_subnet docker0_subnet ip then Some ip else None)
      (Stack.addrs ns2)
  in
  Alcotest.(check bool) "released address reused" true
    (match (ip1, ip2) with
    | Some a, Some b -> Ipv4.equal a b
    | _ -> false)

let test_kubelet_agent () =
  let tb = world () in
  let node = Nestfusion.Testbed.node tb 0 in
  let kl = Kubelet.of_node node in
  Alcotest.(check bool) "idempotent per node" true (Kubelet.of_node node == kl);
  (* Drive the paper's step 3-4 by hand: VMM announces a MAC, the agent
     discovers and configures. *)
  let netns = Nest_virt.Vm.new_netns (Node.vm node) ~name:"p" () in
  let configured = ref None in
  Nest_virt.Vmm.hotplug_nic_mac tb.Nestfusion.Testbed.vmm ~vm:(Node.vm node)
    ~bridge:"virbr0" ~id:"n1"
    ~k:(fun r ->
      match r with
      | Error e -> Alcotest.fail ("hotplug failed: " ^ e)
      | Ok mac ->
        Kubelet.configure_nic kl ~netns ~mac ~ip:(ip "10.0.0.88")
          ~subnet:(cidr "10.0.0.0/24") ~gateway:(ip "10.0.0.1")
          ~k:(fun dev -> configured := Some dev)
          ());
  Nestfusion.Testbed.run_until tb (Time.sec 1);
  (match !configured with
  | None -> Alcotest.fail "agent never configured the NIC"
  | Some dev ->
    Alcotest.(check bool) "attached into the pod namespace" true
      (List.memq dev (Stack.devices netns));
    Alcotest.(check bool) "addressed" true
      (Stack.is_local_addr netns (ip "10.0.0.88")));
  Alcotest.(check int) "counted" 1 (Kubelet.pods_configured kl)

(* Regression: a process-global agent registry used to keep every node,
   and through it the whole testbed, alive for the life of the process.
   The helper allocates in its own frame so the test frame holds no
   hidden strong reference when the GC runs. *)
let[@inline never] use_agent_and_track w =
  let tb = world () in
  let node = Nestfusion.Testbed.node tb 0 in
  Alcotest.(check int) "fresh agent" 0
    (Kubelet.pods_configured (Kubelet.of_node node));
  Weak.set w 0 (Some node)

let test_kubelet_node_collectable () =
  let w = Weak.create 1 in
  use_agent_and_track w;
  Gc.full_major ();
  Alcotest.(check bool) "node released with its testbed" true
    (Weak.get w 0 = None)

let test_overlay_pods_isolated_network () =
  (* Two pods on the same overlay get distinct addresses and can talk. *)
  let tb = world ~num_vms:2 () in
  let net =
    Cni_overlay.create ~name:"ov" ~vni:77 ~subnet:(cidr "10.99.0.0/24")
  in
  let plugin = Cni_overlay.plugin net in
  let ns_a = ref None and ns_b = ref None in
  plugin.Cni.add ~pod_name:"pa" ~node:(Nestfusion.Testbed.node tb 0) ~publish:[]
    ~k:(fun ns -> ns_a := Some ns);
  plugin.Cni.add ~pod_name:"pb" ~node:(Nestfusion.Testbed.node tb 1) ~publish:[]
    ~k:(fun ns -> ns_b := Some ns);
  Nestfusion.Testbed.run_until tb (Time.sec 1);
  let a = Option.get !ns_a and b = Option.get !ns_b in
  let ip_a = Option.get (Cni_overlay.pod_ip net a) in
  let ip_b = Option.get (Cni_overlay.pod_ip net b) in
  Alcotest.(check bool) "distinct addresses" false (Ipv4.equal ip_a ip_b);
  Alcotest.(check int) "both nodes joined" 2 (List.length (Cni_overlay.members net));
  let got = ref false in
  let _srv =
    Stack.Udp.bind b ~port:5555 (fun _ ~src:_ ~src_port:_ _ -> got := true)
  in
  let cl = Stack.Udp.bind a ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  Stack.Udp.sendto cl ~dst:ip_b ~dst_port:5555 (Payload.raw 700);
  Nestfusion.Testbed.run_until tb (Time.sec 3);
  Alcotest.(check bool) "cross-VM overlay datagram" true !got

let () =
  Alcotest.run "container+orch"
    [ ( "image+boot",
        [ Alcotest.test_case "pull" `Quick test_image_pull;
          qtest test_boot_model_shapes;
          Alcotest.test_case "rules grow setup" `Quick
            test_boot_network_grows_with_rules ] );
      ( "docker",
        [ Alcotest.test_case "lifecycle" `Quick test_docker_lifecycle_and_boot_duration;
          Alcotest.test_case "nat connectivity" `Quick test_docker_nat_connectivity;
          Alcotest.test_case "armed netfilter" `Quick test_docker_armed_netfilter ]
      );
      ( "orchestrator",
        [ Alcotest.test_case "node reservation" `Quick test_node_reservation;
          Alcotest.test_case "scheduler" `Quick test_scheduler_policies;
          qtest test_index_equals_fold;
          Alcotest.test_case "index work per placement" `Quick test_index_work;
          Alcotest.test_case "index allocation" `Quick test_index_allocation;
          Alcotest.test_case "kube deploy" `Quick test_kube_deploy_pod;
          Alcotest.test_case "kube no fit" `Quick test_kube_no_fit;
          Alcotest.test_case "overlay isolation" `Quick
            test_overlay_pods_isolated_network;
          Alcotest.test_case "kubelet agent" `Quick test_kubelet_agent;
          Alcotest.test_case "kubelet node collectable" `Quick
            test_kubelet_node_collectable;
          Alcotest.test_case "nat ip released" `Quick
            test_nat_ip_released_on_stop ] ) ]
