(** BrFusion (§3): network virtualization de-duplication.

    Instead of bridging the pod into an in-VM docker0 + NAT layer, the
    orchestrator asks the VMM — over its management side channel — to
    hot-plug a fresh virtio NIC into the VM for this pod.  The NIC's
    host-side backend is enslaved to the host bridge, and the guest-side
    device is moved straight into the pod's network namespace: the pod is
    directly linked to the host-level virtual network, with addressing and
    NAT exactly as the host already does for VMs.

    The four-step protocol of §3.1 maps to this implementation as:
    + the plugin calls {!Nest_virt.Vmm.hotplug_nic}, naming the target
      host bridge (steps 1–2: netdev_add + device_add over QMP);
    + the VMM answers with the new NIC's MAC (step 3);
    + the plugin, acting as the in-VM agent, waits for the device to
      appear by that MAC, moves it into the pod namespace and configures
      address + default route (step 4). *)

open Nest_net

type config
(** A deployment's BrFusion state: VMM handle, target bridge, pod IPAM,
    plus the pod address assignments and hotplug count accumulated by
    {!plugin}.  All of it has the config's lifetime. *)

val make_config :
  ?garp:bool -> Nest_virt.Vmm.t -> host_bridge:string -> config
(** Builds the IPAM from the bridge's subnet, reserving the gateway and
    already-used VM addresses as callers allocate them through it too.

    [garp] (default false) broadcasts a gratuitous ARP ({!Stack.garp})
    when a pod's address is configured.  Deployments that recycle leases
    — chaos cells running {!release_vm} — need it: a reused address
    otherwise stays bound to the dead pod's MAC in peer neighbour caches
    and the replacement is blackholed.  Off by default so unfaulted
    benchmark figures keep their exact frame sequence. *)

val host_bridge : config -> string
(** Bridge whose network pods join. *)

val pod_ipam : config -> Ipam.t
(** Addresses for pod NICs (host-bridge subnet); callers provisioning
    sibling endpoints (e.g. fresh VMs) allocate through this too. *)

val plugin : config -> Nest_orch.Cni.t
(** CNI plugin named "brfusion". *)

val pod_ip : config -> Stack.ns -> Ipv4.t option
(** Address assigned to a pod namespace by this plugin. *)

val release_vm : config -> vm:Nest_virt.Vm.t -> int
(** Crash-time lease GC: frees the IPAM lease of every pod namespace
    living inside [vm] (which just died) and drops their assignments;
    returns how many were released.  Chaos recovery calls this from its
    crash hook — replacement pods allocate fresh leases, so a dead VM's
    leases would otherwise leak forever. *)

val live_assignments : config -> int
(** Pod addresses currently assigned.  The no-leak invariant chaos cells
    assert is [Ipam.in_use (pod_ipam c) = live_assignments c] once the
    engine quiesces: every allocated lease is held by a live pod. *)
