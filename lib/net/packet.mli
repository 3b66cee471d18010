(** IPv4 packets. *)

type transport =
  | Udp of { src_port : int; dst_port : int; payload : Payload.t }
  | Tcp of { seg : Tcp_wire.t; payload : Payload.t }
      (** [payload.size] must equal [seg.len]. *)
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

val with_addrs : ?src:Ipv4.t -> ?dst:Ipv4.t -> t -> t
val with_ports : ?src_port:int -> ?dst_port:int -> t -> t
(** Rewrites transport ports (NAT); ICMP packets are returned unchanged. *)

val decrement_ttl : t -> t option
(** [None] once the TTL would reach 0 (packet must be dropped). *)

val proto_name : t -> string
val pp : Format.formatter -> t -> unit
