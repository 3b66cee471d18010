open Nest_net

module Node = Nest_orch.Node
module Pod = Nest_orch.Pod
module Scheduler = Nest_orch.Scheduler
module Docker = Nest_container.Engine
module Time = Nest_sim.Time

type placement =
  | Whole of Node.t * Stack.ns
  | Split of (Node.t * Stack.ns) list

type deployment = {
  dep_tag : string;
  dep_pod : Pod.t;
  placement : placement;
  containers : Docker.container list;
}

type t = {
  tb : Testbed.t;
  provision_delay : Time.ns;
  allow_split : bool;
  brf : Brfusion.config;
  hlo : Hostlo.config;
  mutable fleet : Node.t list;
  mutable bought : int;
  mutable split_count : int;
  mutable serial : int;
  mutable vm_serial : int;
  vol_registry : Pod_resources.Volumes.t;
  mutable dep_list : deployment list;
  (* Per-deployment reservations, for release on delete. *)
  mutable reservations : (deployment * (Node.t * float * float) list) list;
}

(* Every VM the autopilot buys has the paper's shape. *)
let vm_vcpus = 5
let vm_mem_mb = 4096

let create tb ?(provision_delay = Time.sec 45) ?(allow_split = true) () =
  { tb; provision_delay; allow_split;
    brf = Brfusion.make_config tb.Testbed.vmm ~host_bridge:"virbr0";
    hlo = Hostlo.make_config tb.Testbed.vmm;
    fleet = tb.Testbed.nodes; bought = 0; split_count = 0; serial = 0;
    vm_serial = 0; vol_registry = Pod_resources.Volumes.create ();
    dep_list = []; reservations = [] }

let nodes t = t.fleet
let volumes t = t.vol_registry
let vms_bought t = t.bought
let pods_split t = t.split_count
let deployments t = t.dep_list

let vm_capacity = (float_of_int vm_vcpus, float_of_int vm_mem_mb /. 1024.0)

let buy_vm t k =
  t.vm_serial <- t.vm_serial + 1;
  let name = Printf.sprintf "ap-vm%d" t.vm_serial in
  Nest_sim.Engine.schedule t.tb.Testbed.engine ~delay:t.provision_delay
    (fun () ->
      let ip = Ipam.alloc (Brfusion.pod_ipam t.brf) in
      let vm =
        Nest_virt.Vmm.create_vm t.tb.Testbed.vmm ~name ~vcpus:vm_vcpus
          ~mem_mb:vm_mem_mb ~bridge:(Brfusion.host_bridge t.brf) ~ip
      in
      let node = Node.create vm in
      t.fleet <- t.fleet @ [ node ];
      t.tb.Testbed.vms <- t.tb.Testbed.vms @ [ vm ];
      t.tb.Testbed.nodes <- t.tb.Testbed.nodes @ [ node ];
      t.bought <- t.bought + 1;
      k node)

(* First-fit-decreasing of the pod's containers over the fleet's free
   space; None when even the aggregate cannot host it. *)
let plan_split t (pod : Pod.t) =
  let free =
    List.map
      (fun n ->
        ( n,
          ref (Node.cpu_capacity n -. Node.cpu_requested n),
          ref (Node.mem_capacity n -. Node.mem_requested n) ))
      t.fleet
  in
  let specs =
    List.sort
      (fun (a : Pod.container_spec) b ->
        compare (b.Pod.cpu +. b.Pod.mem) (a.Pod.cpu +. a.Pod.mem))
      pod.Pod.containers
  in
  let assignment = ref [] in
  let ok =
    List.for_all
      (fun (cs : Pod.container_spec) ->
        match
          List.find_opt
            (fun (_, fc, fm) -> !fc >= cs.Pod.cpu && !fm >= cs.Pod.mem)
            free
        with
        | None -> false
        | Some (n, fc, fm) ->
          fc := !fc -. cs.Pod.cpu;
          fm := !fm -. cs.Pod.mem;
          assignment := (cs, n) :: !assignment;
          true)
      specs
  in
  if ok then Some (List.rev !assignment) else None

let setup_volumes t ~tag ~pod ~placement =
  let vms =
    match placement with
    | Whole (node, _) -> [ Node.vm node ]
    | Split frs -> List.map (fun (n, _) -> Node.vm n) frs
  in
  List.iter
    (fun (v : Pod.volume_decl) ->
      let backend =
        if v.Pod.shared_fs then Pod_resources.Virtfs else Pod_resources.Local
      in
      Pod_resources.Volumes.declare t.vol_registry ~pod:tag
        ~volume:v.Pod.vol_name backend;
      List.iter
        (fun vm ->
          Pod_resources.Volumes.mount t.vol_registry ~pod:tag
            ~volume:v.Pod.vol_name ~vm:(Nest_virt.Vm.name vm))
        vms)
    pod.Pod.volumes

let start_containers t ~tag ~pod ~netns_of ~placement ~resv ~on_ready =
  setup_volumes t ~tag ~pod ~placement;
  let remaining = ref (List.length pod.Pod.containers) in
  let started = ref [] in
  List.iter
    (fun (cs : Pod.container_spec) ->
      let node, netns = netns_of cs in
      let c =
        Docker.run (Node.docker node) ~image:cs.Pod.image ~netns
          ~net_setup:Docker.instant_net_setup
          ~on_ready:(fun _ ->
            decr remaining;
            if !remaining = 0 then begin
              let dep =
                { dep_tag = tag; dep_pod = pod; placement;
                  containers = List.rev !started }
              in
              t.dep_list <- t.dep_list @ [ dep ];
              t.reservations <- (dep, resv) :: t.reservations;
              on_ready dep
            end)
          ()
      in
      started := c :: !started)
    pod.Pod.containers

let deploy_whole t pod node ~on_ready =
  let cpu = Pod.cpu_total pod and mem = Pod.mem_total pod in
  Node.reserve node ~cpu ~mem;
  t.serial <- t.serial + 1;
  let tag = Printf.sprintf "%s-%d" pod.Pod.pod_name t.serial in
  let plugin = Brfusion.plugin t.brf in
  plugin.Nest_orch.Cni.add ~pod_name:tag ~node ~publish:[] ~k:(fun netns ->
      start_containers t ~tag ~pod
        ~netns_of:(fun _ -> (node, netns))
        ~placement:(Whole (node, netns))
        ~resv:[ (node, cpu, mem) ] ~on_ready)

let deploy_split t pod assignment ~on_ready =
  t.split_count <- t.split_count + 1;
  t.serial <- t.serial + 1;
  let pod_tag = Printf.sprintf "%s-%d" pod.Pod.pod_name t.serial in
  (* Group the assignment by node; reserve per fraction. *)
  let fractions =
    List.fold_left
      (fun acc (cs, node) ->
        match List.assq_opt node acc with
        | Some specs ->
          specs := cs :: !specs;
          acc
        | None -> (node, ref [ cs ]) :: acc)
      [] assignment
  in
  let resv =
    List.map
      (fun (node, specs) ->
        let cpu = List.fold_left (fun a c -> a +. c.Pod.cpu) 0.0 !specs in
        let mem = List.fold_left (fun a c -> a +. c.Pod.mem) 0.0 !specs in
        Node.reserve node ~cpu ~mem;
        (node, cpu, mem))
      fractions
  in
  let plugin = Hostlo.plugin t.hlo in
  (* Build every fraction's namespace, then start containers joined to
     their fraction. *)
  let rec build acc = function
    | [] ->
      let frs = List.rev acc in
      let netns_of cs =
        let node = List.assq cs (List.map (fun (c, n) -> (c, n)) assignment) in
        (node, List.assq node frs)
      in
      start_containers t ~tag:pod_tag ~pod ~netns_of
        ~placement:(Split (List.map (fun (n, ns) -> (n, ns)) frs))
        ~resv ~on_ready
    | (node, _) :: rest ->
      plugin.Nest_orch.Cni.add ~pod_name:pod_tag ~node ~publish:[]
        ~k:(fun netns -> build ((node, netns) :: acc) rest)
  in
  build [] fractions

let rec deploy t pod ~on_ready =
  let cpu = Pod.cpu_total pod and mem = Pod.mem_total pod in
  let cap_cpu, cap_mem = vm_capacity in
  if
    List.exists
      (fun (c : Pod.container_spec) -> c.Pod.cpu > cap_cpu || c.Pod.mem > cap_mem)
      pod.Pod.containers
  then
    failwith
      (Printf.sprintf "Autopilot.deploy: a container of %s exceeds a whole VM"
         pod.Pod.pod_name);
  let splittable =
    t.allow_split
    && List.for_all (fun (v : Pod.volume_decl) -> v.Pod.shared_fs)
         pod.Pod.volumes
  in
  if (not splittable) && (cpu > cap_cpu || mem > cap_mem) then
    failwith
      (Printf.sprintf
         "Autopilot.deploy: pod %s exceeds a whole VM and cannot be split \
          (splitting disabled or local volumes)"
         pod.Pod.pod_name);
  match Scheduler.most_requested t.fleet ~cpu ~mem with
  | Some node -> deploy_whole t pod node ~on_ready
  | None -> (
    match (if splittable then plan_split t pod else None) with
    | Some assignment -> deploy_split t pod assignment ~on_ready
    | None ->
      (* The fleet cannot host it even fragmented: grow it and retry. *)
      buy_vm t (fun _node -> deploy t pod ~on_ready))

let delete t dep =
  List.iter
    (fun c ->
      let node =
        match dep.placement with
        | Whole (n, _) -> n
        | Split frs -> (
          (* Find the fraction whose docker engine owns the container. *)
          match
            List.find_opt
              (fun (n, _) ->
                List.memq c (Docker.containers (Node.docker n)))
              frs
          with
          | Some (n, _) -> n
          | None -> fst (List.hd frs))
      in
      Docker.stop (Node.docker node) c)
    dep.containers;
  (match List.assq_opt dep t.reservations with
  | Some resv ->
    List.iter (fun (node, cpu, mem) -> Node.release node ~cpu ~mem) resv
  | None -> ());
  t.reservations <- List.filter (fun (d, _) -> d != dep) t.reservations;
  t.dep_list <- List.filter (fun d -> d != dep) t.dep_list

let scale_down t =
  let empty, busy =
    List.partition
      (fun n -> Node.cpu_requested n <= 1e-9 && Node.mem_requested n <= 1e-9)
      t.fleet
  in
  t.fleet <- busy;
  List.length empty

let replica_headroom node ~cpu ~mem =
  if cpu <= 0.0 || mem <= 0.0 then
    invalid_arg "Autopilot.replica_headroom: replica shape must be > 0";
  let by_cpu =
    (Node.cpu_capacity node -. Node.cpu_requested node) /. cpu
  in
  let by_mem =
    (Node.mem_capacity node -. Node.mem_requested node) /. mem
  in
  Stdlib.max 0 (int_of_float (Float.min by_cpu by_mem))
