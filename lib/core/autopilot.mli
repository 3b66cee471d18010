(** The paper's §7 direction, implemented: the orchestrator as the only
    manager of the datacenter, with the VMM as its tool.

    The autopilot owns both the node fleet and the VMM.  Deploying a pod:

    + place it whole on an existing node ("most requested") and network
      it with BrFusion — the de-duplicated datapath is the default;
    + if no node can host it whole but the fleet's *aggregate* free
      capacity can, split the pod's containers across nodes
      (first-fit-decreasing) and give the pod a Hostlo localhost spanning
      its fractions — the cross-VM deployment §4 enables;
    + otherwise ask the VMM for a new VM (paying a provisioning delay),
      register it as a node, and retry.

    [scale_down] releases empty VMs, closing the loop the paper says
    current platforms lack: the orchestrator sizing the VM fleet. *)

open Nest_net

type t

type placement =
  | Whole of Nest_orch.Node.t * Stack.ns
  | Split of (Nest_orch.Node.t * Stack.ns) list
      (** One Hostlo fraction per node. *)

type deployment = {
  dep_tag : string;  (** Unique instance tag (volume registry key). *)
  dep_pod : Nest_orch.Pod.t;
  placement : placement;
  containers : Nest_container.Engine.container list;
}

val create :
  Testbed.t ->
  ?provision_delay:Nest_sim.Time.ns ->
  ?allow_split:bool ->
  unit ->
  t
(** Starts with the testbed's existing nodes (if any).  New VMs have
    5 vCPUs / 4 GB (the paper's shape).  Defaults: 45 s provisioning
    (cloud VM boot), splitting allowed.  [allow_split:false] gives the
    pre-Hostlo world (whole-pod only) for comparison. *)

val deploy :
  t -> Nest_orch.Pod.t -> on_ready:(deployment -> unit) -> unit
(** Asynchronous; drive the engine.  Pod volumes are declared and mounted
    per §4.3: a pod with a non-shared (local) volume is never split — its
    filesystem cannot be visible from two OSes — so it falls back to
    whole-pod placement even when fragmentation would allow a split.
    Raises [Failure] only if a single container exceeds a whole VM. *)

val volumes : t -> Pod_resources.Volumes.t
(** The §4.3 volume registry the autopilot maintains. *)

val delete : t -> deployment -> unit
(** Stops containers and releases reservations (VMs stay until
    {!scale_down}). *)

val scale_down : t -> int
(** Releases nodes with no reservations; returns how many. *)

val replica_headroom : Nest_orch.Node.t -> cpu:float -> mem:float -> int
(** How many more replicas of the given shape the node's remaining
    capacity can host — the static ceiling a per-node autoscaler plans
    against at setup time (a runtime reservation from an arbitrary
    shard would race with the churn replay and break digest identity;
    see DESIGN.md §5e).  Raises [Invalid_argument] on a non-positive
    shape. *)

val nodes : t -> Nest_orch.Node.t list
val vms_bought : t -> int
val pods_split : t -> int
val deployments : t -> deployment list
