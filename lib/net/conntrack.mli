(** Connection tracking with NAT bindings (Linux conntrack).

    Both NAT layers of the nested stack (Docker's inside the VM, the
    VMM's on the host) are built on this: a flow's first packet through a
    SNAT/DNAT rule creates a binding, and every subsequent packet of the
    flow — in either direction — is translated from the table without
    consulting the rules again.

    Lookups allocate nothing: each table keeps one lookup key that
    every {!translate}, {!admit}, {!snat} and {!dnat} fills from the
    packet; only a new binding stores keys, fresh ones. *)

type proto = Proto_udp | Proto_tcp | Proto_icmp

type flow = {
  proto : proto;
  f_src : Ipv4.t;
  f_sport : int;
  f_dst : Ipv4.t;
  f_dport : int;
}
(** ICMP echo flows use the echo identifier as both ports. *)

val flow_of_packet : Packet.t -> flow

val flow_hash : flow -> int
(** The binding table's hash of a flow: an integer mix of its five
    fields, not [Hashtbl.hash]. *)

type t

val create : unit -> t

val snat : t -> Packet.t -> to_ip:Ipv4.t -> Packet.t
(** Source-NAT (masquerade): rewrites the source to [to_ip] with an
    allocated port, creating forward and reply bindings on first sight.
    Idempotent for an already-bound flow. *)

val dnat : t -> Packet.t -> to_ip:Ipv4.t -> to_port:int -> Packet.t
(** Destination-NAT (port publishing). *)

val translate : t -> Packet.t -> Packet.t
(** Table-only translation for established flows.  Returns [p] itself
    (physically) exactly when no binding matches; a binding always
    yields a fresh packet, so [translate t p != p] says it applied (in
    which case NAT rules must be skipped, matching Linux semantics). *)

val entry_count : t -> int

val set_capacity : t -> int option -> unit
(** Fault injection: clamp the table to at most [n] bindings ([None], the
    default, is unlimited).  Enforced through {!admit} at the netfilter
    layer, not inside {!snat}/{!dnat}. *)

val admit : t -> Packet.t -> bool
(** [admit t p] is [true] when [p]'s flow is already bound or the table
    has room for a new forward+reply pair.  Returns [false] when a new
    binding would exceed the capacity clamp; the caller must then drop
    the packet (Linux "nf_conntrack: table full, dropping packet"). *)
