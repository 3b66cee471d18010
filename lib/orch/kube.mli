(** The orchestrator control plane: node registry, scheduling, and the
    pod deployment pipeline (schedule -> CNI add -> start containers).

    Baseline Kubernetes semantics: a pod is placed whole on a single
    node (§2's "constraint of VM boundary").  Cross-VM deployment is the
    capability the core library adds on top (lib/core/Hostlo +
    Deploy). *)

type t

type deployment = {
  dep_pod : Pod.t;
  dep_node : Node.t;
  dep_ns : Nest_net.Stack.ns;
  dep_containers : Nest_container.Engine.container list;
  dep_cni : Cni.t;  (** how the pod was wired, for rescheduling *)
}

val create : Nest_sim.Engine.t -> default_cni:Cni.t -> t
val add_node : t -> Node.t -> unit
val nodes : t -> Node.t list

val deploy_pod :
  t ->
  Pod.t ->
  on_ready:(deployment -> unit) ->
  unit ->
  unit
(** Schedules with the most-requested policy; reserves resources; builds
    pod networking through the default CNI plugin; starts every container
    joined to the pod namespace.  [on_ready] fires when all containers
    are running.  Raises [Failure] when no node fits. *)

val delete_pod : t -> deployment -> unit
(** Stops containers and releases the reservation. *)

val deployments : t -> deployment list

val reschedule_node_failure :
  t -> node:Node.t -> on_ready:(deployment -> unit) -> int * int
(** React to [node]'s VM dying: mark it not-ready, evict its pods, and
    re-place each on a surviving node through its original CNI plugin.
    Returns [(rescheduled, lost)] where lost pods fit on no ready node.
    [on_ready] fires per re-placed pod once its containers restart. *)
