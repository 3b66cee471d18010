(* Read in place: [Packet.ports] would box a pair per matched packet. *)
let dst_port_of (pkt : Packet.t) =
  match pkt.Packet.transport with
  | Packet.Udp { dst_port; _ } -> dst_port
  | Packet.Tcp { seg } -> seg.Tcp_wire.dst_port
  | Packet.Icmp_echo _ -> -1

(* A NAT rewrite runs inside the hop that invoked the netfilter hook, so
   its provenance mark is a zero-duration entry pinned to that hop's end
   — it names the rewrite without claiming time (the hook's CPU cost is
   the nat surcharge already folded into the rx/tx hop). *)
let note_rewrite (pkt : Packet.t) name =
  match pkt.Packet.prov with
  | Some p -> Nest_sim.Provenance.mark_after p ~hop:("nat:" ^ name)
  | None -> ()

let masquerade nf ct ~name ~src_subnet ?out_dev ~nat_ip () =
  let matches ~in_dev:_ ~out_dev:o (pkt : Packet.t) =
    Ipv4.in_subnet src_subnet pkt.Packet.src
    && (not (Ipv4.in_subnet src_subnet pkt.Packet.dst))
    && match out_dev with None -> true | Some d -> String.equal o d
  in
  let action pkt =
    if not (Conntrack.admit ct pkt) then Netfilter.Drop
    else begin
      note_rewrite pkt name;
      Netfilter.Mangle (Conntrack.snat ct pkt ~to_ip:nat_ip)
    end
  in
  Netfilter.append nf Netfilter.Postrouting { rule_name = name; matches; action }

let publish nf ct ~name ~dst_ip ~dst_port ~to_ip ~to_port =
  let matches ~in_dev:_ ~out_dev:_ (pkt : Packet.t) =
    Ipv4.equal pkt.Packet.dst dst_ip && dst_port_of pkt = dst_port
  in
  let action pkt =
    if not (Conntrack.admit ct pkt) then Netfilter.Drop
    else begin
      note_rewrite pkt name;
      Netfilter.Mangle (Conntrack.dnat ct pkt ~to_ip ~to_port)
    end
  in
  Netfilter.append nf Netfilter.Prerouting { rule_name = name; matches; action }
