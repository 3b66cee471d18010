(** Hostlo (§4): cross-VM pod deployment via a host-backed localhost.

    The pod's private localhost interface is re-implemented as a host
    loopback TAP multiplexed between the VMs hosting the pod's fractions:
    one RX/TX queue per VM, every frame written on any queue reflected to
    all queues.  Each fraction's namespace is created *without* a regular
    [lo]; the Hostlo endpoint carries 127.0.0.1, so containerized
    applications use their localhost exactly as in a whole pod — the
    transport-level transparency the paper claims over adapted-application
    approaches (§6).

    §4.1's protocol maps to: first fraction -> VMM creates the loopback
    tap; every fraction -> VMM inserts a queue endpoint as a hot-plugged
    NIC (netdev_add_hostlo + device_add), the plugin waits for it by MAC
    (all endpoints share the tap's MAC: it is one interface) and
    configures it as the fraction's localhost. *)

open Nest_net

type config
(** A deployment's Hostlo state: the VMM handle plus the per-pod loopback
    TAPs and fraction counts.  The state is owned by the config value —
    release the config and the whole deployment's state is collectable. *)

val make_config : ?standby:int -> Nest_virt.Vmm.t -> config
(** [standby] (default 0: off) is the target depth of the pre-provisioned
    endpoint pool kept per (VM, pod).  With a warm pool, a rescheduled
    fraction claims an already-plugged endpoint instead of paying the QMP
    hot-plug — under management-plane faults that round-trip is exactly
    what is failing and backing off, so the pool moves the retry storm off
    the pod's critical path.  This is the mitigation the chaos sweep
    measures for Hostlo's availability dip at high fault rates. *)

val preprovision : config -> node:Nest_orch.Node.t -> pod_name:string -> unit
(** Fill the (node's VM, pod) standby pool up to the configured depth by
    issuing background hot-plugs (kubelet retry semantics; failures are
    counted as [fault.standby_provision_failed], never fail a pod).  Call
    at deployment setup and again from the VM-restart recovery hook — a
    crash voids the banked endpoints (they died with the QEMU process;
    stale entries are recognised by incarnation handle and dropped). *)

val plugin : config -> Nest_orch.Cni.t
(** CNI plugin named "hostlo".  [add] treats each call for the same pod
    name as one more fraction: the first creates the loopback tap, later
    ones reuse it.  With [standby > 0] a fraction claims a pooled
    endpoint when one is banked for its (VM, pod) — counted as
    [recovery.standby_claimed], with an async refill — and falls back to
    the regular hot-plug path otherwise.  One active fraction per
    (VM, pod) is assumed (Hostlo's cross-VM model): pooled endpoints
    share the pod tap's MAC, so the VM agent's discovery-by-MAC cannot
    tell two unclaimed endpoints on the same VM apart. *)

val tap_of_pod : config -> string -> Tap.t option
(** The pod's multiplexed loopback device, once created. *)

val fractions : config -> string -> int
(** Number of endpoints inserted for the pod so far. *)
