let dst_port_of pkt = match Packet.ports pkt with Some (_, d) -> d | None -> -1

(* A NAT rewrite runs inside the hop that invoked the netfilter hook, so
   its provenance mark is a zero-duration entry pinned to that hop's end
   — it names the rewrite without claiming time (the hook's CPU cost is
   the nat surcharge already folded into the rx/tx hop). *)
let note_rewrite (pkt : Packet.t) name =
  match pkt.Packet.prov with
  | Some p -> Nest_sim.Provenance.mark_after p ~hop:("nat:" ^ name)
  | None -> ()

let masquerade nf ct ~name ~src_subnet ?out_dev ~nat_ip () =
  let matches (ctx : Netfilter.ctx) (pkt : Packet.t) =
    Ipv4.in_subnet src_subnet pkt.Packet.src
    && (not (Ipv4.in_subnet src_subnet pkt.Packet.dst))
    &&
    match out_dev, ctx.Netfilter.out_dev with
    | None, _ -> true
    | Some d, Some o -> String.equal o d
    | Some _, None -> false
  in
  let action _ctx pkt =
    if not (Conntrack.admit ct pkt) then Netfilter.Drop
    else begin
      note_rewrite pkt name;
      Netfilter.Mangle (Conntrack.snat ct pkt ~to_ip:nat_ip)
    end
  in
  Netfilter.append nf Netfilter.Postrouting { rule_name = name; matches; action }

let publish nf ct ~name ~dst_ip ~dst_port ~to_ip ~to_port =
  let matches _ctx (pkt : Packet.t) =
    Ipv4.equal pkt.Packet.dst dst_ip && dst_port_of pkt = dst_port
  in
  let action _ctx pkt =
    if not (Conntrack.admit ct pkt) then Netfilter.Drop
    else begin
      note_rewrite pkt name;
      Netfilter.Mangle (Conntrack.dnat ct pkt ~to_ip ~to_port)
    end
  in
  Netfilter.append nf Netfilter.Prerouting { rule_name = name; matches; action }

let drop_from nf ~name ~hook ~src_subnet =
  let matches _ctx (pkt : Packet.t) = Ipv4.in_subnet src_subnet pkt.Packet.src in
  let action _ctx _pkt = Netfilter.Drop in
  Netfilter.append nf hook { rule_name = name; matches; action }
