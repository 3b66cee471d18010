type transport =
  | Udp of { src_port : int; dst_port : int; payload : Payload.t }
  | Tcp of { seg : Tcp_wire.t }
  | Icmp_echo of { id : int; seq : int; reply : bool }

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;
  transport : transport;
  prov : Nest_sim.Provenance.t option;
}

let make ?prov ~src ~dst transport = { src; dst; ttl = 64; transport; prov }

let prov t = t.prov

let ip_header_bytes = 20
let udp_header_bytes = 8
let icmp_bytes = 8

let len t =
  ip_header_bytes
  +
  match t.transport with
  | Udp { payload; _ } -> udp_header_bytes + Payload.size payload
  | Tcp { seg; _ } -> Tcp_wire.header_bytes + seg.Tcp_wire.len
  | Icmp_echo _ -> icmp_bytes

let ports t =
  match t.transport with
  | Udp { src_port; dst_port; _ } -> Some (src_port, dst_port)
  | Tcp { seg; _ } -> Some (seg.Tcp_wire.src_port, seg.Tcp_wire.dst_port)
  | Icmp_echo _ -> None

let[@inline] ip_of o default = match o with Some (ip, _) -> ip | None -> default
let[@inline] port_of o default = match o with Some (_, p) -> p | None -> default

(* A transport block whose ports stay as they are is shared, not
   rebuilt: blocks are immutable, and an address-only rewrite (DNAT to
   the same port, the reply of a port-keeping NAT) is common. *)
let rewrite t ~src ~dst =
  let transport =
    match t.transport with
    | Icmp_echo _ as icmp -> icmp
    | Udp u as udp ->
      let src_port = port_of src u.src_port
      and dst_port = port_of dst u.dst_port in
      if src_port = u.src_port && dst_port = u.dst_port then udp
      else Udp { u with src_port; dst_port }
    | Tcp { seg } as tcp ->
      let src_port = port_of src seg.Tcp_wire.src_port
      and dst_port = port_of dst seg.Tcp_wire.dst_port in
      if src_port = seg.Tcp_wire.src_port && dst_port = seg.Tcp_wire.dst_port
      then tcp
      else Tcp { seg = { seg with Tcp_wire.src_port; dst_port } }
  in
  { t with src = ip_of src t.src; dst = ip_of dst t.dst; transport }

let ttl_expired t = t.ttl <= 1
let decrement_ttl t = { t with ttl = t.ttl - 1 }

let proto_name t =
  match t.transport with
  | Udp _ -> "udp"
  | Tcp _ -> "tcp"
  | Icmp_echo _ -> "icmp"

let pp fmt t =
  match ports t with
  | Some (sp, dp) ->
    Format.fprintf fmt "%s %a:%d > %a:%d len=%d" (proto_name t) Ipv4.pp t.src
      sp Ipv4.pp t.dst dp (len t)
  | None ->
    Format.fprintf fmt "%s %a > %a len=%d" (proto_name t) Ipv4.pp t.src
      Ipv4.pp t.dst (len t)
