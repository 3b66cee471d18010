(** TAP devices: kernel-provided virtual interfaces that exchange Ethernet
    frames with a file-descriptor backend — the standard backend for
    QEMU/vhost virtual NICs.

    Two modes:
    - [Normal]: one or more RX/TX queues; frames written by the backend
      (vhost, i.e. the guest) appear on the host side, where the tap is
      typically enslaved to a bridge; host-side frames are handed to the
      backend.  This is the plumbing under every VM NIC in the testbed.
    - [Loopback]: the paper's modified driver (§4.2, Hostlo).  The tap has
      one queue per served VM and *reflects every frame written on any
      queue back out to all of its queues*; there is no host-side
      attachment.  The reflection work runs in the host kernel and is paid
      on the tap's {!Hop.t}. *)

type mode = Normal | Loopback

type t
type queue

val create :
  Nest_sim.Engine.t ->
  name:string ->
  mode:mode ->
  hop:Hop.t ->
  ?per_queue_ns:int ->
  mac:Mac.t ->
  unit ->
  t
(** [per_queue_ns] (loopback mode, default 0): extra reflection cost per
    served queue — copying one descriptor per destination ring. *)

val name : t -> string
val mode : t -> mode

val mac : t -> Mac.t
(** The tap's own address.  A loopback tap is one interface multiplexed
    between VMs, so all of its queue endpoints share this MAC. *)

val host_dev : t -> Dev.t
(** Host-side presence (attach to a bridge).  Raises [Failure] for
    loopback-mode taps, which have no host side. *)

val add_queue : t -> owner:string -> queue
(** New RX/TX queue; [owner] names the VM it will serve (diagnostics). *)

val remove_queues : t -> owner:string -> int
(** Detach (and orphan) every queue owned by [owner], returning how many
    were removed.  Used when a member VM crashes: the Hostlo reflector
    must stop reflecting into the dead VM's rings.  Writes arriving on a
    detached queue are dropped. *)

val queues : t -> queue list
val queue_owner : queue -> string

val queue_set_backend : queue -> (Frame.t -> unit) -> unit
(** Installs the backend consumer (vhost): called for every frame the tap
    pushes toward the guest. *)

val queue_write : queue -> Frame.t -> unit
(** Backend -> tap: the guest transmitted [frame].
    Normal mode: the frame appears host-side.
    Loopback mode: the frame is reflected to all queues. *)

val reflected : t -> int
(** Loopback mode: total frames handed to queue backends by reflection. *)

val set_exhausted : t -> bool -> unit
(** Fault injection: queue exhaustion.  While set, every frame entering
    the tap (from the host side or from any queue) is dropped — the
    behavior of full vhost rings under overload. *)

val exhausted : t -> bool
