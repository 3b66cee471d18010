(** iptables-style NAT rule installers.

    Thin helpers that append the canonical Docker/libvirt NAT rules to a
    {!Netfilter.t}, backed by a shared {!Conntrack.t}. *)

val masquerade :
  Netfilter.t ->
  Conntrack.t ->
  name:string ->
  src_subnet:Ipv4.cidr ->
  ?out_dev:string ->
  nat_ip:Ipv4.t ->
  unit ->
  unit
(** POSTROUTING: packets sourced in [src_subnet] and leaving (optionally
    via [out_dev]) toward destinations outside the subnet get their source
    rewritten to [nat_ip] with a tracked port. *)

val publish :
  Netfilter.t ->
  Conntrack.t ->
  name:string ->
  dst_ip:Ipv4.t ->
  dst_port:int ->
  to_ip:Ipv4.t ->
  to_port:int ->
  unit
(** PREROUTING: packets addressed to [dst_ip:dst_port] are redirected to
    [to_ip:to_port] (Docker's [-p] port publishing). *)
