(** A guest virtual machine: vCPUs, guest-kernel execution contexts, the
    guest root network namespace, and the guest-visible NIC registry fed
    by hot-plug (the paper's VM agent discovers hot-plugged NICs by the
    MAC address the orchestrator learned from the VMM — §3.1 step 4).

    All guest work — kernel or application — is charged both to its own
    entity and to the host's [guest] category, matching how KVM guest
    time appears on the host. *)

open Nest_net

type t

val create :
  Host.t -> name:string -> vcpus:int -> mem_mb:int -> t

val name : t -> string
val host : t -> Host.t
val vcpus : t -> int
val mem_mb : t -> int

val ns : t -> Stack.ns
(** Guest root namespace (IP forwarding enabled, as Docker requires). *)

val sys_exec : t -> Nest_sim.Exec.t
val soft_exec : t -> Nest_sim.Exec.t

val new_netns : t -> name:string -> ?with_loopback:bool -> unit -> Stack.ns
(** A pod/container network namespace inside this guest.  It shares the
    guest kernel's execution contexts: its packet work contends with the
    guest's other namespaces for the same vCPU time. *)

val new_app_exec : t -> name:string -> entity:string -> Nest_sim.Exec.t
(** Application context inside the guest ([entity], usr + host guest). *)

val guest_hops : t -> veth:unit -> Hop.t * Hop.t
(** [(guest-soft veth hop, guest-soft bridge hop)] for building in-guest
    plumbing (Docker's veth pairs and docker0). *)

(* Hot-plug arrival: the VMM inserts NICs; the in-guest agent waits for
   them by MAC (virtio probe + udev having completed). *)

val nic_arrived : t -> Dev.t -> unit
(** Called by the VMM when a hot-plugged NIC becomes guest-visible. *)

val wait_nic :
  t -> mac:Mac.t -> ?on_dead:(unit -> unit) -> k:(Dev.t -> unit) -> unit ->
  unit
(** Runs [k] with the device once (immediately if already present).
    [on_dead] (default: nothing) fires instead of [k] if the VM dies
    before the device arrives — or immediately if it is already dead —
    so callers can release resources reserved for the NIC rather than
    leak them with the waiter. *)

val nics : t -> Dev.t list

val netns_list : t -> Stack.ns list
(** Every pod/container namespace created inside this guest. *)

val alive : t -> bool

val kill : t -> unit
(** Abrupt VM death (fault injection): marks the VM dead, downs every
    guest-visible device in the root and pod namespaces, and discards
    pending NIC waiters.  The VMM layer ({!Vmm.crash_vm}) additionally
    tears down host-side plumbing. *)
