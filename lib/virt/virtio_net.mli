(** Virtio-net device: guest-side frontend paired with a vhost backend
    worker in the host kernel, carried by a TAP queue.

    Guest transmissions pay the vhost worker for descriptor processing
    and copy before reaching the tap; tap-to-guest frames pay the same
    worker before entering the guest's receive path.  The vhost worker is
    a dedicated host-kernel execution context, so each NIC scales
    independently — the property that lets BrFusion give every pod its
    own NIC without a shared chokepoint. *)

open Nest_net

type t

val create :
  vm:Vm.t ->
  id:string ->
  mac:Mac.t ->
  queue:Tap.queue ->
  vhost:Nest_sim.Exec.t ->
  ?l2:Dev.l2_mode ->
  unit ->
  t
(** [l2 = Reflector] for Hostlo endpoints (queues of a loopback tap). *)

val dev : t -> Dev.t
(** The guest-visible device; attach it to a guest namespace. *)

val id : t -> string

val unplug : t -> unit
(** Detaches the frontend: subsequent traffic in either direction is
    dropped (device_del). *)
