type proto = Proto_udp | Proto_tcp | Proto_icmp

type flow = {
  proto : proto;
  f_src : Ipv4.t;
  f_sport : int;
  f_dst : Ipv4.t;
  f_dport : int;
}

let flow_of_packet (p : Packet.t) =
  match p.transport with
  | Packet.Udp { src_port; dst_port; _ } ->
    { proto = Proto_udp; f_src = p.src; f_sport = src_port; f_dst = p.dst;
      f_dport = dst_port }
  | Packet.Tcp { seg; _ } ->
    { proto = Proto_tcp; f_src = p.src; f_sport = seg.Tcp_wire.src_port;
      f_dst = p.dst; f_dport = seg.Tcp_wire.dst_port }
  | Packet.Icmp_echo { id; _ } ->
    { proto = Proto_icmp; f_src = p.src; f_sport = id; f_dst = p.dst;
      f_dport = id }

let pp_flow fmt f =
  let proto =
    match f.proto with
    | Proto_udp -> "udp"
    | Proto_tcp -> "tcp"
    | Proto_icmp -> "icmp"
  in
  Format.fprintf fmt "%s %a:%d>%a:%d" proto Ipv4.pp f.f_src f.f_sport Ipv4.pp
    f.f_dst f.f_dport

(* A binding rewrites matched packets to have the given endpoints. *)
type rewrite = {
  new_src : (Ipv4.t * int) option;
  new_dst : (Ipv4.t * int) option;
}

(* [hash] is the generic structural hash; [equal] is monomorphic, all
   five fields, proto included. *)
module Flow_tbl = Hashtbl.Make (struct
  type t = flow

  let equal a b =
    a.proto = b.proto && Ipv4.equal a.f_src b.f_src
    && Int.equal a.f_sport b.f_sport && Ipv4.equal a.f_dst b.f_dst
    && Int.equal a.f_dport b.f_dport

  let hash (f : flow) = Hashtbl.hash f
end)

type t = {
  table : rewrite Flow_tbl.t;
  mutable next_port : int;
  mutable capacity : int option;
  mutable ct_drops : int;
}

let create () =
  { table = Flow_tbl.create 64; next_port = 32768; capacity = None;
    ct_drops = 0 }

let set_capacity t c = t.capacity <- c
let capacity t = t.capacity
let drops t = t.ct_drops

(* nf_conntrack admission: an established flow always passes; a new flow
   needs room for its forward+reply binding pair.  When there is none the
   packet must be dropped by the caller ("table full, dropping packet"). *)
let admit t p =
  match t.capacity with
  | None -> true
  | Some cap ->
    let f = flow_of_packet p in
    if Flow_tbl.mem t.table f then true
    else if Flow_tbl.length t.table + 2 <= cap then true
    else begin
      t.ct_drops <- t.ct_drops + 1;
      false
    end

let alloc_port t =
  let p = t.next_port in
  t.next_port <- (if p >= 60999 then 32768 else p + 1);
  p

let apply rw p = Packet.rewrite p ~src:rw.new_src ~dst:rw.new_dst

let translate t p =
  if Flow_tbl.length t.table = 0 then p
  else
    match Flow_tbl.find t.table (flow_of_packet p) with
    | rw -> apply rw p
    | exception Not_found -> p

let snat t p ~to_ip =
  let f = flow_of_packet p in
  match Flow_tbl.find t.table f with
  | rw -> apply rw p
  | exception Not_found ->
    (* ICMP has no ports: the echo identifier must survive translation so
       the reply can be matched. *)
    let nat_port =
      match f.proto with Proto_icmp -> f.f_sport | _ -> alloc_port t
    in
    let fwd = { new_src = Some (to_ip, nat_port); new_dst = None } in
    (* Replies arrive addressed to the NAT endpoint. *)
    let reply_flow =
      { proto = f.proto; f_src = f.f_dst; f_sport = f.f_dport; f_dst = to_ip;
        f_dport = nat_port }
    in
    let back = { new_src = None; new_dst = Some (f.f_src, f.f_sport) } in
    Flow_tbl.replace t.table f fwd;
    Flow_tbl.replace t.table reply_flow back;
    apply fwd p

let dnat t p ~to_ip ~to_port =
  let f = flow_of_packet p in
  match Flow_tbl.find t.table f with
  | rw -> apply rw p
  | exception Not_found ->
    let fwd = { new_src = None; new_dst = Some (to_ip, to_port) } in
    let reply_flow =
      { proto = f.proto; f_src = to_ip; f_sport = to_port; f_dst = f.f_src;
        f_dport = f.f_sport }
    in
    let back = { new_src = Some (f.f_dst, f.f_dport); new_dst = None } in
    Flow_tbl.replace t.table f fwd;
    Flow_tbl.replace t.table reply_flow back;
    apply fwd p

let entry_count t = Flow_tbl.length t.table
