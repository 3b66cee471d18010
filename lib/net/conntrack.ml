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

(* A binding rewrites matched packets to have the given endpoints. *)
type rewrite = {
  new_src : (Ipv4.t * int) option;
  new_dst : (Ipv4.t * int) option;
}

(* The binding table's key: a flow in mutable immediate fields, so one
   lookup key per table answers every lookup without allocating.  A
   stored key is always a fresh one ([Flow_tbl.replace] keeps the key
   it is given), never the lookup key. *)
type key = {
  mutable k_proto : proto;
  mutable k_src : Ipv4.t;
  mutable k_sport : int;
  mutable k_dst : Ipv4.t;
  mutable k_dport : int;
}

(* [Ipv4.hash]'s mix, kept in this module so the table's hash inlines. *)
let[@inline] mix x =
  let h = x * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 32)) * 0x3C79AC492BA7B653 in
  (h lxor (h lsr 29)) land max_int

let proto_ix = function Proto_udp -> 0 | Proto_tcp -> 1 | Proto_icmp -> 2

let[@inline] hash_fields proto src sport dst dport =
  mix
    (mix (Ipv4.to_int src lxor (sport lsl 32) lxor (proto_ix proto lsl 48))
    lxor Ipv4.to_int dst lxor (dport lsl 32))

let flow_hash f = hash_fields f.proto f.f_src f.f_sport f.f_dst f.f_dport

(* [equal] is monomorphic, all five fields, proto included. *)
module Flow_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_proto == b.k_proto && Ipv4.equal a.k_src b.k_src
    && Int.equal a.k_sport b.k_sport && Ipv4.equal a.k_dst b.k_dst
    && Int.equal a.k_dport b.k_dport

  let hash k = hash_fields k.k_proto k.k_src k.k_sport k.k_dst k.k_dport
end)

type t = {
  table : rewrite Flow_tbl.t;
  lookup : key;
  mutable next_port : int;
  mutable capacity : int option;
}

let create () =
  { table = Flow_tbl.create 64;
    lookup =
      { k_proto = Proto_udp; k_src = Ipv4.any; k_sport = 0; k_dst = Ipv4.any;
        k_dport = 0 };
    next_port = 32768; capacity = None }

let set_capacity t c = t.capacity <- c

(* The lookup key, set to [p]'s flow. *)
let key_of_packet t (p : Packet.t) =
  let k = t.lookup in
  k.k_src <- p.src;
  k.k_dst <- p.dst;
  (match p.transport with
  | Packet.Udp { src_port; dst_port; _ } ->
    k.k_proto <- Proto_udp;
    k.k_sport <- src_port;
    k.k_dport <- dst_port
  | Packet.Tcp { seg } ->
    k.k_proto <- Proto_tcp;
    k.k_sport <- seg.Tcp_wire.src_port;
    k.k_dport <- seg.Tcp_wire.dst_port
  | Packet.Icmp_echo { id; _ } ->
    k.k_proto <- Proto_icmp;
    k.k_sport <- id;
    k.k_dport <- id);
  k

(* nf_conntrack admission: an established flow always passes; a new flow
   needs room for its forward+reply binding pair.  When there is none the
   packet must be dropped by the caller ("table full, dropping packet"). *)
let admit t p =
  match t.capacity with
  | None -> true
  | Some cap ->
    Flow_tbl.mem t.table (key_of_packet t p)
    || Flow_tbl.length t.table + 2 <= cap

let alloc_port t =
  let p = t.next_port in
  t.next_port <- (if p >= 60999 then 32768 else p + 1);
  p

let apply rw p = Packet.rewrite p ~src:rw.new_src ~dst:rw.new_dst

let translate t p =
  if Flow_tbl.length t.table = 0 then p
  else
    match Flow_tbl.find t.table (key_of_packet t p) with
    | rw -> apply rw p
    | exception Not_found -> p

(* Stores a new binding pair under fresh keys: the lookup key [k]'s
   flow to [fwd], and the reply flow from [reply_src] to [reply_dst] to
   [back]. *)
let bind t k ~fwd ~reply_src ~reply_sport ~reply_dst ~reply_dport ~back =
  let key src sport dst dport =
    { k_proto = k.k_proto; k_src = src; k_sport = sport; k_dst = dst;
      k_dport = dport }
  in
  Flow_tbl.replace t.table (key k.k_src k.k_sport k.k_dst k.k_dport) fwd;
  Flow_tbl.replace t.table (key reply_src reply_sport reply_dst reply_dport)
    back

let snat t p ~to_ip =
  let k = key_of_packet t p in
  match Flow_tbl.find t.table k with
  | rw -> apply rw p
  | exception Not_found ->
    (* ICMP has no ports: the echo identifier must survive translation so
       the reply can be matched. *)
    let nat_port =
      match k.k_proto with Proto_icmp -> k.k_sport | _ -> alloc_port t
    in
    let fwd = { new_src = Some (to_ip, nat_port); new_dst = None } in
    (* Replies arrive addressed to the NAT endpoint. *)
    let back = { new_src = None; new_dst = Some (k.k_src, k.k_sport) } in
    bind t k ~fwd ~reply_src:k.k_dst ~reply_sport:k.k_dport ~reply_dst:to_ip
      ~reply_dport:nat_port ~back;
    apply fwd p

let dnat t p ~to_ip ~to_port =
  let k = key_of_packet t p in
  match Flow_tbl.find t.table k with
  | rw -> apply rw p
  | exception Not_found ->
    let fwd = { new_src = None; new_dst = Some (to_ip, to_port) } in
    let back = { new_src = Some (k.k_dst, k.k_dport); new_dst = None } in
    bind t k ~fwd ~reply_src:to_ip ~reply_sport:to_port ~reply_dst:k.k_src
      ~reply_dport:k.k_sport ~back;
    apply fwd p

let entry_count t = Flow_tbl.length t.table
