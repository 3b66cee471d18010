type deployment = {
  dep_pod : Pod.t;
  dep_node : Node.t;
  dep_ns : Nest_net.Stack.ns;
  dep_containers : Nest_container.Engine.container list;
  dep_cni : Cni.t;  (* how the pod was wired, for rescheduling *)
}

type t = {
  engine : Nest_sim.Engine.t;
  default_cni : Cni.t;
  mutable node_list : Node.t list;
  mutable deployment_list : deployment list;
}

let create engine ~default_cni =
  { engine; default_cni; node_list = []; deployment_list = [] }

let add_node t n = t.node_list <- t.node_list @ [ n ]

(* Reserves [pod] on [node], wires it through [cni] and starts its
   containers. *)
let place t pod ~cni ~node ~on_ready =
  Node.reserve node ~cpu:(Pod.cpu_total pod) ~mem:(Pod.mem_total pod);
  cni.Cni.add ~pod_name:pod.Pod.pod_name ~node ~publish:[] ~k:(fun pod_ns ->
      let remaining = ref (List.length pod.Pod.containers) in
      let started = ref [] in
      List.iter
        (fun (cs : Pod.container_spec) ->
          let c =
            Nest_container.Engine.run (Node.docker node) ~image:cs.Pod.image
              ~netns:pod_ns ~net_setup:Nest_container.Engine.instant_net_setup
              ~on_ready:(fun _ ->
                decr remaining;
                if !remaining = 0 then begin
                  let dep =
                    { dep_pod = pod; dep_node = node; dep_ns = pod_ns;
                      dep_containers = List.rev !started; dep_cni = cni }
                  in
                  t.deployment_list <- t.deployment_list @ [ dep ];
                  on_ready dep
                end)
              ()
          in
          started := c :: !started)
        pod.Pod.containers)

let deploy_pod t pod ~on_ready () =
  let cpu = Pod.cpu_total pod and mem = Pod.mem_total pod in
  match Scheduler.most_requested t.node_list ~cpu ~mem with
  | Some node -> place t pod ~cni:t.default_cni ~node ~on_ready
  | None -> failwith ("Kube.deploy_pod: no node fits " ^ pod.Pod.pod_name)

(* A node's VM died.  Kubernetes semantics, compressed: the node goes
   NotReady, its pods are evicted, and the scheduler re-places each one
   on a surviving node — through the same CNI plugin it was originally
   wired with, so a BrFusion pod gets a fresh hot-plugged NIC on its new
   node.  Pods that fit nowhere are lost (counted, reported); they are
   NOT returned to the deployment list.  No resources are released on
   the dead node: they died with the VM. *)
let reschedule_node_failure t ~node ~on_ready =
  Node.set_ready node false;
  let dead, rest =
    List.partition (fun d -> d.dep_node == node) t.deployment_list
  in
  t.deployment_list <- rest;
  let rescheduled = ref 0 and lost = ref 0 in
  List.iter
    (fun d ->
      let pod = d.dep_pod in
      let cpu = Pod.cpu_total pod and mem = Pod.mem_total pod in
      match Scheduler.most_requested t.node_list ~cpu ~mem with
      | None -> incr lost
      | Some n ->
        incr rescheduled;
        place t pod ~cni:d.dep_cni ~node:n ~on_ready)
    dead;
  (!rescheduled, !lost)
