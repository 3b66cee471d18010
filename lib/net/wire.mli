(** Cross-node wires: UDP relay gateways over a {!Nest_sim.Sharded} link.

    Two single-node testbeds living on different shards have no shared
    L2/L3 fabric (each has its own bridge and subnets, and the address
    plans deliberately coincide).  A wire bridges one UDP service across
    that gap at L4, the way a load-balancer VIP or node-port does: the
    client sends to a gateway socket on its own node; the gateway ships
    the payload over a {!Nest_sim.Sharded.link} whose lookahead is the
    wire's latency (the inter-node RTT/2 — the underlay delay, a named
    {!profile}'s [p_delay] when one applies); the remote gateway re-emits
    it toward the server address, and replies retrace the path.  The
    wire is the one place a link degrades: a profile's loss and jitter
    and the fleet's link flaps are all per-direction {!impair} values.

    Payloads cross untouched, so request/response tagging (e.g. netperf's
    [Rr_tagged]) survives the relay.  Replies return to the most recent
    client source address, which is exact while all of a wire's traffic
    comes from one client socket, as each node's generator in the fleet
    scenario does. *)

(** {2 Named link profiles}

    The degraded-network matrix (n3x-style tc profiles): each profile
    bundles one-way delay, jitter and loss probability under a stable
    name.  The fleet scenario uses [p_delay] as the wire's base latency
    (its conservative lookahead) and {!impair} applies the jitter and
    loss per datagram. *)

type profile = {
  p_name : string;
  p_delay : Nest_sim.Time.ns;   (** One-way added delay. *)
  p_jitter : Nest_sim.Time.ns;  (** Uniform extra jitter on top. *)
  p_loss : float;               (** Per-datagram drop probability. *)
}

val profile : string -> profile option
(** [datacenter] (25 µs ± 5 µs, lossless), [wan] (10 ms ± 1 ms, 0.1 %),
    [edge] (30 ms ± 5 ms, 0.5 %), [lossy] (5 ms ± 2 ms, 2 %). *)

val profile_names : unit -> string list

type impair
(** Per-direction wire impairment: probabilistic loss and uniform extra
    jitter on top of the base latency, plus an administrative down flag
    (link flaps).  Every random draw happens inside the sending
    gateway's event — on the direction's {e source} shard — so impaired
    wires stay deterministic for any shard/domain split.  One [impair]
    value must only ever be used by one direction for the same reason:
    its PRNG stream and down flag are owned by that shard. *)

val impair : ?profile:profile -> rng:Nest_sim.Prng.t -> unit -> impair
(** Loss and jitter from [profile] (both zero without one): each datagram
    is dropped with probability [p_loss], else delayed by a uniform extra
    [0, p_jitter] on top of the base latency — delivery stays
    [>= lookahead], so the conservative promise holds.  The profile's
    delay is not read here: it is the wire's base [latency], chosen by
    the caller.  Raises [Invalid_argument] on a loss outside [0, 1] or a
    negative jitter. *)

val set_down : impair -> bool -> unit
(** Administrative link flap: while down, every datagram in this
    direction is dropped.  Call only from events on the direction's
    source shard. *)

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
  unit
(** [udp_relay sd ~client_side:(shard, ns) ~server_side:(shard', ns') ...]
    binds a gateway socket on [client_port] in the client-side namespace
    and on [server_port] in the server-side one, and creates the forward
    and reverse sharded links (both with [lookahead = latency]).
    Clients reach the service at the client-side namespace's address on
    [client_port]; the server-side gateway forwards to [target] (and
    receives replies on [server_port], so a node that both serves and
    consumes binds two distinct ports).  Raises like
    {!Nest_sim.Sharded.link} on a non-positive [latency]. *)
