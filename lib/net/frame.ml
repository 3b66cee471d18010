type arp_op = Request | Reply

type arp_msg = {
  op : arp_op;
  sender_mac : Mac.t;
  sender_ip : Ipv4.t;
  target_mac : Mac.t;
  target_ip : Ipv4.t;
}

type body = Ipv4_body of Packet.t | Arp_body of arp_msg

type t = {
  src : Mac.t;
  dst : Mac.t;
  body : body;
  prov : Nest_sim.Provenance.t option;
}

let make ?prov ~src ~dst body =
  (* IP frames share the packet's provenance record so the path survives
     NAT rewrites and re-framing at every L3 hop. *)
  let prov =
    match body with
    | Ipv4_body p when p.Packet.prov <> None -> p.Packet.prov
    | Ipv4_body _ | Arp_body _ -> prov
  in
  { src; dst; body; prov }

let prov t = t.prov

(* Fork the provenance record at a fan-out point (bridge flood, tap
   reflection, multi-remote vxlan) so each copy accumulates only its own
   downstream hops.  The inner packet shares the frame's record, so both
   must be rebuilt around the branched one. *)
let branch_prov t =
  match t.prov with
  | None -> t
  | Some p ->
    let p' = Some (Nest_sim.Provenance.branch p) in
    let body =
      match t.body with
      | Ipv4_body pkt when pkt.Packet.prov <> None ->
        Ipv4_body { pkt with Packet.prov = p' }
      | body -> body
    in
    { t with body; prov = p' }

let eth_header_bytes = 14
let min_frame_bytes = 60
let arp_bytes = 28

let len t =
  let body_len =
    match t.body with
    | Ipv4_body p -> Packet.len p
    | Arp_body _ -> arp_bytes
  in
  Int.max min_frame_bytes (eth_header_bytes + body_len)

let is_broadcast t = Mac.is_broadcast t.dst

let pp fmt t =
  match t.body with
  | Ipv4_body p ->
    Format.fprintf fmt "[%a > %a] %a" Mac.pp t.src Mac.pp t.dst Packet.pp p
  | Arp_body a ->
    let op = match a.op with Request -> "who-has" | Reply -> "is-at" in
    Format.fprintf fmt "[%a > %a] arp %s %a" Mac.pp t.src Mac.pp t.dst op
      Ipv4.pp a.target_ip
