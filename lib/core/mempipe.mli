(** MemPipe (Zhang & Liu, cited in §4.3.2 and §6): cross-VM communication
    over shared memory, below the IP level.

    A channel is a host-provisioned shared-memory ring multiplexed
    between co-resident VMs.  Sending copies the payload into the ring in
    the sender's guest kernel, posts a notification, and the receiver
    copies it out — no virtio, no vhost, no network stack, no MTU
    segmentation.

    This is the related-work alternative the paper weighs against Hostlo:
    faster (see the ext-mempipe experiment), but *not transparent* — the
    application must use the channel API instead of its localhost socket,
    which is exactly why the paper picks a transport-level loopback.  The
    channel registers itself as a {!Pod_resources.Shm} Mempipe segment,
    tying §4.3.2's bookkeeping to a live object. *)

type t
type endpoint

val create :
  Nest_virt.Host.t ->
  Pod_resources.Shm.t ->
  pod:string ->
  name:string ->
  t
(** Registers segment [name] for [pod] (Mempipe backend), a 256 KiB ring,
    in the given §4.3 registry. *)

val attach : t -> Nest_virt.Vm.t -> endpoint
(** One endpoint per pod fraction; records the attachment in the Shm
    registry. *)

val set_on_recv :
  endpoint -> (size:int -> msg:Nest_net.Payload.app_msg option -> unit) -> unit

val send : endpoint -> size:int -> ?msg:Nest_net.Payload.app_msg -> unit -> unit
(** Delivers to every *other* endpoint of the channel (pod semantics).
    Raises [Failure] if [size] exceeds the ring. *)

val sent : t -> int
val delivered : t -> int
