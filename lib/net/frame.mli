(** Ethernet frames.

    Frames optionally carry a latency-provenance record: every hop that
    services a recorded frame appends its name and timing, which lets
    integration tests assert the exact virtualization path a packet
    crossed (Fig. 1 of the paper). *)

type arp_op = Request | Reply

type arp_msg = {
  op : arp_op;
  sender_mac : Mac.t;
  sender_ip : Ipv4.t;
  target_mac : Mac.t;  (** Meaningless for requests. *)
  target_ip : Ipv4.t;
}

type body =
  | Ipv4_body of Packet.t
  | Arp_body of arp_msg

type t = {
  src : Mac.t;
  dst : Mac.t;
  body : body;
  prov : Nest_sim.Provenance.t option;
      (** Latency-provenance record; shared with the inner packet's for
          IPv4 bodies so it survives NAT rewrites and re-framing. *)
}

val make :
  ?prov:Nest_sim.Provenance.t -> src:Mac.t -> dst:Mac.t -> body -> t
(** For IPv4 bodies whose packet already carries a provenance record,
    the frame shares it and [prov] is ignored. *)

val prov : t -> Nest_sim.Provenance.t option

val branch_prov : t -> t
(** Fork the provenance record at a fan-out point (bridge flood, Hostlo
    reflection, multi-remote vxlan) so each copy accumulates only its own
    downstream hops; the identity when the frame carries no record. *)

val len : t -> int
(** 14-byte Ethernet header + body, padded to the 60-byte minimum. *)

val is_broadcast : t -> bool
