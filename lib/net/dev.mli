(** Network devices (interfaces).

    A device separates two roles:
    - [transmit]: the owner (an IP stack or a bridge) pushes a frame out of
      the device; the device's medium — installed by the medium constructor
      ({!Veth}, {!Tap}, virtio, ...) — carries it to the other side;
    - [deliver]: the medium hands an incoming frame to the device, which
      forwards it to whatever is attached on top (stack input or bridge
      port input).

    [l2_mode] distinguishes ordinary interfaces from reflectors (loopback
    and Hostlo endpoints), on which the stack transmits with a broadcast
    destination MAC and skips ARP — the medium reflects frames rather than
    switching them. *)

type l2_mode = Normal | Reflector

type stats = {
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable drops : int;
}

type t = {
  name : string;
  mutable mac : Mac.t;
  mutable mtu : int;
  mutable up : bool;
  l2 : l2_mode;
  stats : stats;
  mutable tx_fn : Frame.t -> unit;
  mutable rx_fn : (Frame.t -> unit) option;
  mutable corrupt_fn : (Frame.t -> bool) option;
}

val create :
  ?mtu:int -> ?l2:l2_mode -> name:string -> mac:Mac.t -> unit -> t
(** Fresh device, up, with no medium ([tx_fn] drops and counts) and nothing
    attached on top. *)

val set_tx : t -> (Frame.t -> unit) -> unit
(** Installed by the medium constructor. *)

val set_rx : t -> (Frame.t -> unit) -> unit
(** Installed by the stack or bridge the device is attached to. *)

val clear_rx : t -> unit

val set_up : t -> bool -> unit
(** Administrative link state.  A down device counts every transmit and
    delivery as a drop — how a crashed VM's devices go dark. *)

val set_corrupt : t -> (Frame.t -> bool) option -> unit
(** Optional receive-side corruption oracle (fault injection).  When
    installed and it returns [true] for a frame, the frame is discarded
    as an FCS/checksum failure and counted in [stats.drops].  [None]
    (the default) costs the datapath nothing. *)

val transmit : t -> Frame.t -> unit
(** Owner -> medium.  Counts tx; drops when the device is down. *)

val deliver : t -> Frame.t -> unit
(** Medium -> owner.  Counts rx; drops when down or unattached. *)

val mss : t -> int
(** MTU minus IP+TCP headers. *)
