(** Cross-node wires: UDP relay gateways over a {!Nest_sim.Sharded} link.

    Two single-node testbeds living on different shards have no shared
    L2/L3 fabric (each has its own bridge and subnets, and the address
    plans deliberately coincide).  A wire bridges one UDP service across
    that gap at L4, the way a load-balancer VIP or node-port does: the
    client sends to a gateway socket on its own node; the gateway ships
    the payload over a {!Nest_sim.Sharded.link} whose lookahead is the
    wire's latency (the inter-node RTT/2 — the netem/VXLAN underlay
    delay); the remote gateway re-emits it toward the server address,
    and replies retrace the path.

    Payloads cross untouched, so request/response tagging (e.g. netperf's
    [Rr_tagged]) survives the relay.  Replies return to the most recent
    client source address, which is exact while all of a wire's traffic
    comes from one client socket, as each node's generator in the fleet
    scenario does. *)

type t

type impair
(** Per-direction wire impairment: probabilistic loss and uniform extra
    jitter on top of the base latency, plus an administrative down flag
    (link flaps).  Every random draw happens inside the sending
    gateway's event — on the direction's {e source} shard — so impaired
    wires stay deterministic for any shard/domain split.  One [impair]
    value must only ever be used by one direction for the same reason:
    its PRNG stream and down flag are owned by that shard. *)

val impair :
  ?loss:float -> ?jitter:Nest_sim.Time.ns -> rng:Nest_sim.Prng.t -> unit ->
  impair
(** [loss] (default 0) per-datagram drop probability; [jitter] (default
    0) uniform extra delay in [0, jitter] added to the base latency —
    delivery stays [>= lookahead], so the conservative promise holds. *)

val impair_of_profile :
  Netem.profile -> rng:Nest_sim.Prng.t -> impair
(** Loss and jitter from a named link profile (the profile's delay is
    the wire's base [latency], chosen by the caller). *)

val set_down : impair -> bool -> unit
(** Administrative link flap: while down, every datagram in this
    direction is dropped.  Call only from events on the direction's
    source shard. *)

val impair_dropped : impair -> int
(** Datagrams dropped by loss or down state in this direction. *)

val udp_relay :
  Nest_sim.Sharded.t ->
  client_side:int * Stack.ns ->
  server_side:int * Stack.ns ->
  client_port:int ->
  server_port:int ->
  target:Ipv4.t * int ->
  latency:Nest_sim.Time.ns ->
  ?fwd_impair:impair ->
  ?rev_impair:impair ->
  unit ->
  t
(** [udp_relay sd ~client_side:(shard, ns) ~server_side:(shard', ns') ...]
    binds a gateway socket on [client_port] in the client-side namespace
    and on [server_port] in the server-side one, and creates the forward
    and reverse sharded links (both with [lookahead = latency]).
    Clients reach the service at the client-side namespace's address on
    [client_port]; the server-side gateway forwards to [target] (and
    receives replies on [server_port], so a node that both serves and
    consumes binds two distinct ports).  Raises like
    {!Nest_sim.Sharded.link} on a non-positive [latency]. *)

val forwarded : t -> int
(** Datagrams delivered to the server side so far. *)

val returned : t -> int
(** Reply datagrams delivered back to the client side so far. *)
