(** Per-namespace IP stack: the kernel network path of a host, a VM, or a
    container/pod network namespace.

    A namespace owns devices, addresses, a routing table, netfilter chains
    with conntrack, an ARP cache, and socket tables.  All processing is
    costed through the {!costs} hops supplied at creation, so namespaces
    belonging to the same kernel (e.g. a VM's root namespace and its pods'
    namespaces) share execution contexts and therefore contend for the
    same vCPU time — the crux of the paper's CPU analysis.

    Reflector devices (loopback-mode TAP endpoints, i.e. Hostlo) get
    special treatment: traffic to a local address carried by a reflector
    is first offered to local sockets and otherwise transmitted out of the
    device with a broadcast destination MAC; inbound reflected frames that
    match no socket are dropped silently (no TCP reset), since every VM of
    the pod sees every reflected frame. *)

type costs = {
  tx : Hop.t;       (** Process-context transmit path, per segment/datagram. *)
  rx : Hop.t;       (** Softirq receive path, per packet. *)
  forward : Hop.t;  (** IP forwarding, per routed packet. *)
  nat : Hop.t;      (** Netfilter surcharge when hooks are armed. *)
  nat_per_rule_ns : int;  (** Extra surcharge per installed rule. *)
  local : Hop.t;    (** Loopback (local) delivery, per packet. *)
  syscall : Hop.t;  (** Per application send call. *)
  wakeup_delay_ns : int;
      (** Scheduler latency before application receive callbacks run —
          pure delay, charged to no context. *)
}

type ns

(** TCP connections by (local port, remote address, remote port), as
    each namespace keeps them.  Lookups allocate nothing: the table
    fills one lookup key for {!find}, {!mem} and {!remove}, and only
    {!add} stores a key, a fresh one. *)
module Conn_table : sig
  type 'a t

  val create : int -> 'a t
  val add : 'a t -> lport:int -> rip:Ipv4.t -> rport:int -> 'a -> unit
  (** Binds the key, replacing an earlier binding of the same key. *)

  val remove : 'a t -> lport:int -> rip:Ipv4.t -> rport:int -> unit

  val find : 'a t -> lport:int -> rip:Ipv4.t -> rport:int -> 'a
  (** Raises [Not_found] when the key is unbound. *)

  val mem : 'a t -> lport:int -> rip:Ipv4.t -> rport:int -> bool
  val length : 'a t -> int
end

type ns_counters = {
  mutable delivered : int;       (** Packets handed to local sockets. *)
  mutable forwarded_pkts : int;
  mutable dropped_no_socket : int;
  mutable dropped_no_route : int;
  mutable dropped_filtered : int;
  mutable dropped_ttl : int;
  mutable rst_sent : int;
}

val create :
  Nest_sim.Engine.t ->
  name:string ->
  costs:costs ->
  ?with_loopback:bool ->
  ?rng:Nest_sim.Prng.t ->
  unit ->
  ns
(** [with_loopback] (default true) installs a standard [lo] device holding
    127.0.0.1/8.  Pod fractions backed by Hostlo pass [false] and give the
    Hostlo endpoint the localhost address instead.  [rng] is the stream the
    namespace splits its jitter stream from (default: the engine root) —
    sharded scenarios pass a per-node stream so draws are identical however
    the nodes are partitioned onto engines. *)

val name : ns -> string
val engine : ns -> Nest_sim.Engine.t
val nf : ns -> Netfilter.t
val ct : ns -> Conntrack.t
val routes : ns -> Route.t
val counters : ns -> ns_counters
val costs : ns -> costs

val attach : ns -> Dev.t -> unit
(** The stack becomes the device's consumer. *)

val devices : ns -> Dev.t list
val find_dev : ns -> string -> Dev.t option

val add_addr : ns -> Dev.t -> Ipv4.t -> Ipv4.cidr -> unit
(** Assigns an address and installs the connected (on-link) route. *)

val addrs : ns -> (Dev.t * Ipv4.t * Ipv4.cidr) list
val is_local_addr : ns -> Ipv4.t -> bool

val set_ip_forward : ns -> bool -> unit
val set_provenance_all : ns -> bool -> unit
(** When set, every packet originated by this namespace carries a
    latency-provenance record (see {!Nest_sim.Provenance}): each hop on
    its path appends timed queue/service attribution and feeds the
    per-hop [hop.<name>.queue_ns] / [hop.<name>.service_ns] histograms.
    Off (the default), the datapath pays nothing. *)

val arp_cache : ns -> (Ipv4.t * Mac.t) list

val arp_flush : ?ip:Ipv4.t -> ns -> unit
(** Expires one neighbour entry ([ip]) or the whole ARP cache, as a
    neighbour-table timeout would. *)

val garp : ns -> Dev.t -> Ipv4.t -> unit
(** Gratuitous ARP: broadcast announce of [ip] at [dev]'s MAC (as
    [arping -A] after assigning an address).  Corrects stale neighbour
    entries segment-wide when an address is reused with a new MAC —
    e.g. an IPAM lease freed by crash-time GC and re-allocated to a
    replacement pod. *)

val set_observer : ns -> (Packet.t -> unit) option -> unit
(** Debug tap invoked for every packet delivered to a local socket in
    this namespace (after NAT reversal), e.g. to read {!Packet.prov}. *)

val loopback_dev : ns -> Dev.t option

(** Datagram sockets. *)
module Udp : sig
  type sock

  val bind :
    ns ->
    port:int ->
    ?kernel:bool ->
    (sock -> src:Ipv4.t -> src_port:int -> Payload.t -> unit) ->
    sock
  (** Raises [Failure] if the port is taken in this namespace.
      [kernel] (default false) marks in-kernel consumers (e.g. a VXLAN
      VTEP) whose delivery skips the application wakeup delay. *)

  val sendto :
    ?prov:Nest_sim.Provenance.t -> sock -> dst:Ipv4.t -> dst_port:int ->
    Payload.t -> unit
  (** [prov] forces a specific provenance record onto the datagram — a
      tunnel threads the inner frame's record onto the outer packet this
      way; by default a record is minted iff {!set_provenance_all} is
      on. *)

  val close : sock -> unit
  val port : sock -> int
end

(** Stream sockets. *)
module Tcp : sig
  type conn

  val listen : ns -> port:int -> on_accept:(conn -> unit) -> unit
  val unlisten : ns -> port:int -> unit

  val connect :
    ns ->
    dst:Ipv4.t ->
    port:int ->
    on_established:(conn -> unit) ->
    unit ->
    conn
  (** Opens from the source address the route to [dst] picks; poll
      {!is_closed} to see it end. *)

  val send : conn -> size:int -> ?msg:Payload.app_msg -> unit -> bool
  (** Queues [size] application bytes (optionally completing message
      [msg]); returns [false] — nothing queued — when the send buffer is
      full, in which case the caller should wait for {!set_on_writable}. *)

  val set_on_receive : conn -> (bytes:int -> msgs:Payload.app_msg list -> unit) -> unit
  val set_on_writable : conn -> (unit -> unit) -> unit
  val close : conn -> unit

  val sndbuf_limit : conn -> int
  val is_established : conn -> bool
  val is_closed : conn -> bool
  val local_endpoint : conn -> Ipv4.t * int
  val remote_endpoint : conn -> Ipv4.t * int
  val bytes_acked : conn -> int
  val retransmits : conn -> int
end

val ping :
  ns -> dst:Ipv4.t -> on_reply:(rtt_ns:Nest_sim.Time.ns -> unit) -> unit
(** ICMP echo; the reply callback fires at most once. *)
