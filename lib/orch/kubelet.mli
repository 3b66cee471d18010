(** The node agent (kubelet): the orchestrator's hands inside each VM.

    In the paper's protocols (§3.1 step 4, §4.1 step 4) the "VM agent"
    waits for the hot-plugged NIC the VMM announced — identified by the
    MAC the orchestrator forwarded — and configures it inside the pod's
    namespace.  [configure_nic] is exactly that operation; the BrFusion
    and Hostlo CNI plugins and the boot-time experiment all go through
    it.  The agent also keeps the node-status bookkeeping an orchestrator
    polls. *)

open Nest_net

type t

val of_node : Node.t -> t
(** The node's agent.  Idempotent: one agent per node, whose state lives
    on the node and is collected with it. *)

val configure_nic :
  t ->
  netns:Stack.ns ->
  mac:Mac.t ->
  ?ip:Ipv4.t ->
  ?subnet:Ipv4.cidr ->
  ?gateway:Ipv4.t ->
  ?on_dead:(unit -> unit) ->
  k:(Dev.t -> unit) ->
  unit ->
  unit
(** Waits for the device with [mac] to become guest-visible (the udev
    moment), moves it into [netns], optionally assigns [ip]/[subnet] and
    a default route via [gateway], then hands it to [k].  [on_dead] fires
    instead of [k] if the VM dies before the device arrives, so plugins
    can release resources (an IPAM lease) reserved for the NIC. *)

val pods_configured : t -> int
(** How many NICs this agent has configured (diagnostics). *)

val hotplug_with_retry :
  t ->
  issue:(k:((Mac.t, string) result -> unit) -> unit) ->
  k:((Mac.t, string) result -> unit) ->
  unit ->
  unit
(** Issue a VMM hot-plug operation with kubelet retry semantics: on
    [Error], re-issue after {!Backoff.default}'s delays until success or
    its last attempt.  Retries are counted on the engine's
    [recovery.hotplug_retries] metric (plus a ["fault"] trace instant).
    With no fault plan installed the operation succeeds first try and
    this is exactly one [issue] call. *)
