(** The virtual machine manager: creates VMs, executes management commands
    over their QMP side channels, and owns the two mechanisms the paper
    adds to the management plane:

    - NIC hot-plug into a running VM, backed by a fresh host tap enslaved
      to a host bridge (BrFusion's primitive, §3);
    - creation of Hostlo multiplexed loopback taps and insertion of their
      per-VM queue endpoints (§4).

    [execute] models the asynchronous QMP round-trip; hot-plugged devices
    become guest-visible only after the in-guest virtio probe delay, and
    are then handed to {!Vm.wait_nic} waiters — the paper's VM-agent
    discovery by MAC.

    Two robustness mechanisms live here:

    - {b Exactly-once hot-plug.}  Every applied command's reply is
      journaled under its {!Qmp.idempotency_key}; a retried command
      answers from the journal instead of re-applying, so a lost ack
      ([Partial_timeout]) cannot duplicate a device.  The journal dies
      with the VM's QMP socket on crash.
    - {b Lifecycle state machine.}  Each VM is in exactly one of
      [Running | Crashing | Down | Restarting]; transitions along the
      legal edges are the only way its device state may change, making
      crash-during-restart and restart-during-detach explicit edges
      rather than interleaving accidents. *)

open Nest_net

type t

type fault_decision =
  | Pass                            (** execute normally *)
  | Fail of string                  (** reply [Error] after the QMP RTT *)
  | Timeout of Nest_sim.Time.ns     (** command lost; [Error] after the wait *)
  | Partial_timeout of Nest_sim.Time.ns
      (** command {e applied} after the normal RTT, but the ack is lost:
          the caller sees [Error "... timeout (reply lost)"] after the
          wait and will retry a command that already took effect.  The
          reply journal is what makes that retry safe. *)

(** VM lifecycle.  Legal edges: [Running -> Crashing -> Down ->
    Restarting -> Running], plus [Restarting -> Crashing] (crash during
    the boot window).  [Crashing] is unobservable from scheduled events
    (teardown is atomic in virtual time). *)
type lifecycle = Running | Crashing | Down | Restarting

val create : Host.t -> t
val host : t -> Host.t

val set_qmp_fault :
  t -> (vm:string -> Qmp.command -> fault_decision) option -> unit
(** Install (or clear) a management-plane fault oracle consulted once per
    {!execute}.  [None] — the default — is the unfaulted path and draws
    nothing from any RNG, so runs without a fault plan are bit-identical
    to runs built before the hook existed. *)

val create_vm :
  t -> name:string -> vcpus:int -> mem_mb:int -> bridge:string -> ip:Ipv4.t -> Vm.t
(** Boots a VM with one cold-plugged NIC ([eth0]) on the named host
    bridge, addressed [ip] with the bridge's subnet and the bridge as
    default gateway.  Raises if a VM of that name is already running. *)

val vms : t -> (string * Vm.t) list
val find_vm : t -> string -> Vm.t option

val lifecycle : t -> string -> lifecycle option
(** Current lifecycle state, [None] for names never booted. *)

val illegal_transitions : t -> int
(** How many illegal lifecycle transitions were {e requested} (each was
    refused and counted).  Non-zero means a code path tried to mutate a VM
    outside the machine's rules — correct runs keep this at exactly 0,
    and the lifecycle tests assert it. *)

val execute : t -> vm:Vm.t -> Qmp.command -> (Qmp.response -> unit) -> unit
(** One QMP round-trip against [vm]'s monitor socket.  Exactly-once: if
    the command's {!Qmp.idempotency_key} is in the reply journal the
    recorded reply is returned without re-applying (counted in the
    [qmp.dedupe] metric).  The reply is [Error "vm not running"] when the
    handle's incarnation is no longer the current Running VM — a handle
    from before a crash never becomes current again. *)

val bridge_addr : t -> string -> (Ipv4.t * Ipv4.cidr) option
(** The (gateway address, subnet) of a host bridge's self interface. *)

val create_hostlo : t -> name:string -> Tap.t
(** New loopback-mode tap in the host kernel (no VM attached yet). *)

val find_tap : t -> string -> Tap.t option
(** Any tap the VMM knows — VM-serving taps ("tap-<vm>", hot-plugged
    "<vm>:<id>") and Hostlo reflectors — by interface name.  Used by
    fault injection to target queue-exhaustion events. *)

(* Convenience wrappers bundling the §3.1/§4.1 orchestrator<->VMM
   protocol: netdev_add + device_add + in-guest discovery. *)

val hotplug_nic :
  t -> vm:Vm.t -> bridge:string -> id:string -> k:(Dev.t -> unit) -> unit
(** [k] fires once the NIC is guest-visible. *)

val hotplug_nic_mac :
  t -> vm:Vm.t -> bridge:string -> id:string ->
  k:((Mac.t, string) result -> unit) -> unit
(** Like {!hotplug_nic} but hands back the MAC as soon as the VMM answers
    (§3.1 step 3): discovery of the guest-visible device is then the VM
    agent's job ({!Vm.wait_nic}, or [Nest_orch.Kubelet.configure_nic]).
    A refused or timed-out round-trip (fault injection, dead VM) arrives
    as [Error] for the orchestrator to retry. *)

val hotplug_hostlo_endpoint_mac :
  t -> vm:Vm.t -> hostlo:string -> id:string ->
  k:((Mac.t, string) result -> unit) -> unit

(* Fault injection: abrupt VM death and supervised restart. *)

val crash_vm : t -> name:string -> unit
(** [Running -> Crashing -> Down]: kill the named VM as if its QEMU
    process died.  The guest and every pod namespace inside it go dark
    ({!Vm.kill}), its host taps leave their bridges, its virtio frontends
    unplug, any queue it held on a Hostlo reflector is detached, and its
    reply journal is discarded (a restarted VM is a fresh QMP socket).
    On a [Restarting] VM this is the crash-during-restart edge: the
    pending boot is cancelled and the VM goes back to [Down].  No-op for
    unknown or already-Down VMs. *)

val restart_vm : t -> name:string -> k:(Vm.t -> unit) -> unit -> bool
(** [Down -> Restarting -> Running]: re-boot a crashed VM from its
    recorded creation spec (same name, sizing, bridge, and address; fresh
    MACs).  The boot occupies 100 ms of virtual time in [Restarting];
    [k] fires with the fresh incarnation when it completes.  Returns
    [false] — and schedules nothing — when the name has no spec or is
    not [Down].  A crash landing inside the boot window
    cancels it ([k] never fires).  Pods are not restored — rescheduling
    them is the orchestrator's job. *)

val check_invariants : t -> string list
(** Cross-table consistency the lifecycle machine enforces: device,
    netdev, tap, and journal entries exist only for Running VMs; Hostlo
    reflector queues are owned by Running VMs; [vm_list] and the
    lifecycle table agree; no illegal transition was ever requested.
    Empty means consistent — chaos cells assert this after every fault
    schedule. *)
