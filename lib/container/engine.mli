(** The container engine (Docker): image handling, container lifecycle,
    and the default bridge+NAT networking inside a VM — the "NAT" baseline
    of every experiment.

    Network setup is continuation-passing so each networking mode plugs
    its own provisioning into the boot sequence: the default
    {!nat_net_setup} builds veth + docker0 + iptables and charges the
    sampled Bridge/NAT setup time, while the BrFusion CNI plugin passes a
    continuation that performs a *live* QMP hot-plug, so Fig. 8 compares
    real code paths rather than two constants. *)

open Nest_net

type t
type container

val create : Nest_virt.Vm.t -> name:string -> t

val nat_net_setup :
  t -> netns:Stack.ns -> publish:(int * int) list -> (unit -> unit) -> unit
(** Default container networking: veth into docker0, address from the
    engine's IPAM, default route, masquerade; publishes
    [(vm_port, container_port)] pairs as DNAT rules on the VM.  The
    continuation fires after the sampled setup time. *)

val instant_net_setup : (unit -> unit) -> unit
(** For containers joining a pre-built namespace (pod-shared loopback):
    no per-container network work. *)

val run :
  t ->
  image:Image.t ->
  netns:Stack.ns ->
  net_setup:((unit -> unit) -> unit) ->
  on_ready:(container -> unit) ->
  unit ->
  container
(** Orders a container: image pull (cached after first use per engine),
    runtime setup, network setup, application start, then [on_ready]. *)

val stop : t -> container -> unit
val containers : t -> container list

val netns : container -> Stack.ns
val state : container -> [ `Creating | `Running | `Stopped ]

val boot_duration_ns : container -> Nest_sim.Time.ns option
(** Order-to-ready duration (the Fig. 8 metric); [None] until ready. *)
