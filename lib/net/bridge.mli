(** Learning Ethernet bridge (software switch), as used for libvirt's
    host bridge and Docker's in-VM [docker0].

    The bridge owns a forwarding database (MAC -> port) populated by source
    learning, with entry aging (300 s, the Linux default).
    Unknown-destination and broadcast frames are flooded.  Every forwarded
    frame pays the bridge's {!Hop.t} — on the host bridge that context is
    the host softirq context; on an in-VM bridge it is the guest's, which
    is exactly the duplicated work BrFusion removes.

    A bridge also exposes a [self] device: the L3 presence of the bridge in
    its owner's network namespace (Linux's [br0] interface), so the owning
    stack can route to/from the bridged segment. *)

type t

val create :
  Nest_sim.Engine.t ->
  name:string ->
  hop:Hop.t ->
  self_mac:Mac.t ->
  t

val name : t -> string

val self_dev : t -> Dev.t
(** The bridge's own interface; attach it to a stack like any device.
    Frames the stack transmits on it enter the bridge; bridged frames
    addressed to [self_mac] (or broadcast) are delivered up through it. *)

val attach : t -> Dev.t -> unit
(** Enslaves a device: its incoming frames are switched by the bridge. *)

val detach : t -> Dev.t -> unit

val ports : t -> Dev.t list
(** Enslaved ports (excluding [self]). *)

val fdb : t -> (Mac.t * string) list
(** Current (address, port-name) learning table, unexpired entries only. *)
