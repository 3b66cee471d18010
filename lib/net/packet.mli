(** IPv4 packets. *)

type transport =
  | Udp of { src_port : int; dst_port : int; payload : Payload.t }
  | Tcp of { seg : Tcp_wire.t }  (** Stream bytes are [seg.len]. *)
  | Icmp_echo of { id : int; seq : int; reply : bool }

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;
  transport : transport;
  prov : Nest_sim.Provenance.t option;
      (** Latency-provenance record.  It is shared across NAT rewrites
          and re-framing at each L3 hop, so a packet's full end-to-end
          path is observable: every hop that services the packet appends
          timed attribution (see [Hop.service_prov]). *)
}

val make :
  ?prov:Nest_sim.Provenance.t -> src:Ipv4.t -> dst:Ipv4.t -> transport -> t
(** TTL defaults to 64; [prov] attaches a latency-provenance record. *)

val prov : t -> Nest_sim.Provenance.t option

val len : t -> int
(** Total IP length: 20-byte IP header + transport header + payload. *)

val ports : t -> (int * int) option
(** (src_port, dst_port) for UDP/TCP, [None] for ICMP. *)

val rewrite : t -> src:(Ipv4.t * int) option -> dst:(Ipv4.t * int) option -> t
(** NAT rewrite in one rebuild: [Some (ip, port)] replaces that end's
    address and transport port ([None] keeps it).  ICMP packets take the
    address only.  Always a fresh packet, never [t] itself; its
    transport block is [t]'s own when both ports stay unchanged. *)

val ttl_expired : t -> bool
(** [true] once a forward would bring the TTL to 0: the packet must be
    dropped, not passed to {!decrement_ttl}. *)

val decrement_ttl : t -> t
(** The packet one forwarding hop later; test {!ttl_expired} first. *)

val pp : Format.formatter -> t -> unit
