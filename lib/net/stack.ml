module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Trace = Nest_sim.Trace
module Metrics = Nest_sim.Metrics

(* Per-packet lookup tables: monomorphic equality and an inline integer
   mix for a hash (the mix of [Ipv4.hash], kept here so it inlines), not
   the C [Hashtbl.hash].  No result depends on their bucket order: the
   one fold, [Conn_table.uses_port], is a boolean OR. *)
let[@inline] mix x =
  let h = x * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 32)) * 0x3C79AC492BA7B653 in
  (h lxor (h lsr 29)) land max_int

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

(* TCP connections by (local port, remote address, remote port).  The
   key sits in mutable immediate fields, and each table fills one
   reused [lookup] key for every find, mem and remove: only [add] stores
   a key, a fresh one ([Hashtbl.replace] keeps the key it is given). *)
module Conn_table = struct
  type key = {
    mutable k_lport : int;
    mutable k_rip : Ipv4.t;
    mutable k_rport : int;
  }

  module Tbl = Hashtbl.Make (struct
    type t = key

    let equal a b =
      Int.equal a.k_lport b.k_lport && Ipv4.equal a.k_rip b.k_rip
      && Int.equal a.k_rport b.k_rport

    let hash k =
      mix (Ipv4.to_int k.k_rip lxor (k.k_lport lsl 32) lxor (k.k_rport lsl 46))
  end)

  type 'a t = { tbl : 'a Tbl.t; lookup : key }

  let create n =
    { tbl = Tbl.create n;
      lookup = { k_lport = 0; k_rip = Ipv4.any; k_rport = 0 } }

  let key t ~lport ~rip ~rport =
    let k = t.lookup in
    k.k_lport <- lport;
    k.k_rip <- rip;
    k.k_rport <- rport;
    k

  let add t ~lport ~rip ~rport v =
    Tbl.replace t.tbl { k_lport = lport; k_rip = rip; k_rport = rport } v

  let remove t ~lport ~rip ~rport =
    Tbl.remove t.tbl (key t ~lport ~rip ~rport)

  let find t ~lport ~rip ~rport = Tbl.find t.tbl (key t ~lport ~rip ~rport)
  let mem t ~lport ~rip ~rport = Tbl.mem t.tbl (key t ~lport ~rip ~rport)
  let length t = Tbl.length t.tbl

  (* Bucket order cannot show: a boolean OR. *)
  let uses_port t p =
    Tbl.fold (fun k _ acc -> acc || k.k_lport = p) t.tbl false
end

type costs = {
  tx : Hop.t;
  rx : Hop.t;
  forward : Hop.t;
  nat : Hop.t;
  nat_per_rule_ns : int;
  local : Hop.t;
  syscall : Hop.t;
  wakeup_delay_ns : int;
}

type ns_counters = {
  mutable delivered : int;
  mutable forwarded_pkts : int;
  mutable dropped_no_socket : int;
  mutable dropped_no_route : int;
  mutable dropped_filtered : int;
  mutable dropped_ttl : int;
  mutable rst_sent : int;
}

(* TCP tuning.  Values follow Linux defaults where a default exists. *)
let sndbuf_default = 262_144
let rcvwnd_default = 262_144
let init_cwnd_segments = 10
let rto_initial = Time.ms 200

(* Consecutive no-progress RTOs before the connection is aborted — the
   role of Linux's tcp_retries2 (and tcp_syn_retries for handshakes),
   scaled down to simulation horizons: 8 rungs of the capped-at-2^6
   exponential ladder span ~38 s of virtual time. *)
let tcp_max_retries = 8
let delack_delay = Time.us 200
let ack_every_segments = 2
let ephemeral_base = 49_152
let loopback_mtu = 65_536

(* A connection's in-flight segments as [(seq, len)] pairs in one
   growable int ring, ascending seq: retransmission reads the head and an
   ACK pops the acknowledged prefix.  Slot [k] holds its pair at
   [a.(2k)] and [a.(2k+1)]; the capacity in slots is 0 or a power of
   two. *)
module Seg_ring = struct
  type t = { mutable a : int array; mutable head : int; mutable count : int }

  let create () = { a = [||]; head = 0; count = 0 }
  let is_empty t = t.count = 0
  let head_seq t = t.a.(2 * t.head)
  let head_len t = t.a.((2 * t.head) + 1)

  let push t ~seq ~len =
    let cap = Array.length t.a / 2 in
    if t.count = cap then begin
      let ncap = if cap = 0 then 8 else 2 * cap in
      let a = Array.make (2 * ncap) 0 in
      for i = 0 to t.count - 1 do
        let j = (t.head + i) land (cap - 1) in
        a.(2 * i) <- t.a.(2 * j);
        a.((2 * i) + 1) <- t.a.((2 * j) + 1)
      done;
      t.a <- a;
      t.head <- 0
    end;
    let i = (t.head + t.count) land ((Array.length t.a / 2) - 1) in
    t.a.(2 * i) <- seq;
    t.a.((2 * i) + 1) <- len;
    t.count <- t.count + 1

  (* Drop every segment that ends at or below [ack]. *)
  let pop_acked t ~ack =
    while t.count > 0 && head_seq t + head_len t <= ack do
      t.head <- (t.head + 1) land ((Array.length t.a / 2) - 1);
      t.count <- t.count - 1
    done
end

type tcp_state =
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait
  | Last_ack
  | Closed

type udp_sock = {
  u_ns : ns;
  u_port : int;
  u_kernel : bool;
  mutable u_recv : udp_sock -> src:Ipv4.t -> src_port:int -> Payload.t -> unit;
  mutable u_closed : bool;
}

and tcp_conn = {
  c_ns : ns;
  c_local_ip : Ipv4.t;
  c_local_port : int;
  c_remote_ip : Ipv4.t;
  c_remote_port : int;
  c_mss : int;
  mutable c_state : tcp_state;
  (* Send side: absolute stream offsets starting at 0. *)
  mutable snd_una : int;        (* oldest unacknowledged byte *)
  mutable snd_nxt : int;        (* next byte to transmit *)
  mutable send_off : int;       (* end of data accepted from the app *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable peer_wnd : int;
  tx_framing : Tcp_wire.Framing.t;  (* our messages' end offsets *)
  inflight : Seg_ring.t;  (* sent, unacknowledged; for retransmission *)
  mutable rto_armed : bool;
  mutable rto_una_at_arm : int;
  mutable rto_backoff : int;
  mutable dup_acks : int;
  mutable c_retransmits : int;
  (* Receive side. *)
  mutable rcv_nxt : int;
  mutable delivered_off : int;
  mutable ooo : (int * int) list;  (* (seq, len), sorted by seq *)
  mutable rx_framing : Tcp_wire.Framing.t;  (* the peer's, from its SYN(-ACK) *)
  mutable pending_ack_segs : int;
  mutable delack_armed : bool;
  (* Continuations built once per connection. *)
  mutable pump_k : unit -> unit;  (* after the send syscall *)
  mutable delack_k : unit -> unit;
  mutable rto_k : unit -> unit;
  (* Application interface. *)
  mutable on_receive : bytes:int -> msgs:Payload.app_msg list -> unit;
  mutable on_writable : unit -> unit;
  mutable writable_waiting : bool;
  mutable on_established_cb : tcp_conn -> unit;
  c_sndbuf : int;
}

and tcp_listener = { l_on_accept : tcp_conn -> unit }

and ns = {
  ns_name : string;
  eng : Engine.t;
  cs : costs;
  nf_tbl : Netfilter.t;
  ct_tbl : Conntrack.t;
  rt : Route.t;
  mutable devs : Dev.t list;
  mutable addr_list : (Dev.t * Ipv4.t * Ipv4.cidr) list;
  arp_tbl : Mac.t Ipv4.Tbl.t;
  arp_waiting : (Mac.t -> unit) list ref Ipv4.Tbl.t;
  udp_binds : udp_sock Int_tbl.t;
  listeners : tcp_listener Int_tbl.t;
  conns : tcp_conn Conn_table.t;
  icmp_waiters : (Time.ns * (rtt_ns:Time.ns -> unit)) Int_tbl.t;
  mutable next_eph : int;
  mutable next_icmp_id : int;
  mutable fwd : bool;
  mutable prov_all : bool;
  mutable prov_tick : int;  (* 1-in-N sampling countdown, see fresh_prov *)
  cnt : ns_counters;
  timer_lbls : Engine.label option array;  (* by kind, see [schedule_in] *)
  mutable lo : Dev.t option;
  mutable observer : (Packet.t -> unit) option;
  ns_rng : Nest_sim.Prng.t;
}

(* Scheduler wakeup latency: base plus an exponential tail (run-queue
   luck), so end-to-end latency distributions have realistic spread. *)
let wakeup_delay ns =
  let base = float_of_int ns.cs.wakeup_delay_ns in
  if base <= 0.0 then 0
  else
    int_of_float
      ((0.6 *. base) +. Nest_sim.Dist.exponential ns.ns_rng ~mean:(0.4 *. base))

(* Counter bumps funnel through these helpers so every delivery/drop also
   leaves a trace instant (cat ["pkt"], name = namespace) when a tracer is
   installed.  The reconciliation invariant tested in the observability
   suite — trace instants per namespace equal counter deltas — depends on
   the two being updated at the same site. *)
let note_delivered ns =
  ns.cnt.delivered <- ns.cnt.delivered + 1;
  Engine.trace_instant ns.eng ~cat:"pkt" ~name:ns.ns_name ~arg:"delivered" ()

let note_drop ?(n = 1) ns reason =
  (match reason with
  | `No_socket -> ns.cnt.dropped_no_socket <- ns.cnt.dropped_no_socket + n
  | `No_route -> ns.cnt.dropped_no_route <- ns.cnt.dropped_no_route + n
  | `Filtered -> ns.cnt.dropped_filtered <- ns.cnt.dropped_filtered + n
  | `Ttl -> ns.cnt.dropped_ttl <- ns.cnt.dropped_ttl + n);
  match Engine.tracer ns.eng with
  | None -> ()
  | Some tr ->
    let arg =
      match reason with
      | `No_socket -> "drop:no_socket"
      | `No_route -> "drop:no_route"
      | `Filtered -> "drop:filtered"
      | `Ttl -> "drop:ttl"
    in
    for _ = 1 to n do
      Trace.instant tr ~ts:(Engine.now ns.eng) ~cat:"pkt" ~name:ns.ns_name
        ~arg ()
    done

(* The per-packet timers' event labels, by kind, as "<ns>:<kind>".  Each
   is registered on the kind's first event in the namespace: a fleet
   has thousands of namespaces, and most never arm most kinds. *)
let tcp_wakeup = 0
let tcp_delack = 1
let tcp_rto = 2
let udp_wakeup = 3
let timer_kinds = [| ":tcp-wakeup"; ":tcp-delack"; ":tcp-rto"; ":udp-wakeup" |]

let schedule_in ns kind ~delay k =
  let lbl =
    match ns.timer_lbls.(kind) with
    | Some l -> l
    | None ->
      let l = Engine.label ns.eng (ns.ns_name ^ timer_kinds.(kind)) in
      ns.timer_lbls.(kind) <- Some l;
      l
  in
  Engine.schedule_labeled ns.eng lbl ~at:(Engine.now ns.eng + delay) k

let name ns = ns.ns_name
let engine ns = ns.eng
let nf ns = ns.nf_tbl
let ct ns = ns.ct_tbl
let routes ns = ns.rt
let counters ns = ns.cnt
let costs ns = ns.cs
let devices ns = ns.devs
let find_dev ns n = List.find_opt (fun d -> d.Dev.name = n) ns.devs
let addrs ns = ns.addr_list
let set_ip_forward ns b = ns.fwd <- b
let set_provenance_all ns b = ns.prov_all <- b

(* Latency-provenance record for a packet originating in this namespace;
   [None] (the free path) unless provenance is switched on.  With
   [Provenance.set_sampling n > 1], only every n-th eligible packet gets
   a record — the counter is per-namespace and advanced in send order,
   so the sampled subset is deterministic across runs and [--jobs N]. *)
let fresh_prov ns =
  if not ns.prov_all then None
  else
    let n = Nest_sim.Provenance.sampling () in
    if n <= 1 then Some (Nest_sim.Provenance.create ())
    else begin
      ns.prov_tick <- ns.prov_tick + 1;
      if ns.prov_tick >= n then begin
        ns.prov_tick <- 0;
        Some (Nest_sim.Provenance.create ())
      end
      else None
    end
let set_observer ns f = ns.observer <- f
let loopback_dev ns = ns.lo

let addr_of_dev ns dev =
  List.find_map
    (fun (d, ip, _) -> if d == dev then Some ip else None)
    ns.addr_list

let lo_subnet = Ipv4.cidr_of_string "127.0.0.0/8"

(* Top-level loops rather than [List.exists]/[List.find_map]: these run
   for every packet, and a top-level loop allocates no closure. *)
let rec addr_held ip = function
  | [] -> false
  | (_, a, _) :: rest -> Ipv4.equal a ip || addr_held ip rest

let is_local_addr ns ip =
  addr_held ip ns.addr_list || (ns.lo <> None && Ipv4.in_subnet lo_subnet ip)

let rec dev_of_addr ip = function
  | [] -> raise_notrace Not_found
  | (d, a, _) :: rest -> if Ipv4.equal a ip then d else dev_of_addr ip rest

(* The device holding [ip], which must pass [is_local_addr]: the one it
   is assigned to, or loopback for the rest of its subnet.  Callers
   test first, so no option is built per local packet. *)
let dev_holding_addr ns ip =
  match dev_of_addr ip ns.addr_list with
  | d -> d
  | exception Not_found -> Option.get ns.lo

let arp_cache ns =
  Ipv4.Tbl.fold (fun ip mac acc -> (ip, mac) :: acc) ns.arp_tbl []
  |> List.sort compare

(* Netfilter is "armed" once any rule exists; armed namespaces pay the
   [nat] hop surcharge on their datapath — a fixed hook cost plus a
   per-rule term (Docker's chains are long) — which is exactly the
   per-packet work BrFusion eliminates inside the VM.  Both reads are
   O(1): the rule total is kept by [Netfilter] itself. *)
let nat_surcharge ns =
  let rules = Netfilter.total_rules ns.nf_tbl in
  if rules > 0 || Conntrack.entry_count ns.ct_tbl > 0 then
    ns.cs.nat.Hop.fixed_ns + (ns.cs.nat_per_rule_ns * rules)
  else 0

(* ------------------------------------------------------------------ *)
(* ARP                                                                 *)

let send_ip_frame dev ~dst_mac pkt =
  Dev.transmit dev
    (Frame.make ~src:dev.Dev.mac ~dst:dst_mac (Frame.Ipv4_body pkt))

let arp_request ns dev target_ip =
  let sender_ip = Option.value (addr_of_dev ns dev) ~default:Ipv4.any in
  let msg =
    { Frame.op = Frame.Request; sender_mac = dev.Dev.mac; sender_ip;
      target_mac = Mac.of_int 0; target_ip }
  in
  Dev.transmit dev
    (Frame.make ~src:dev.Dev.mac ~dst:Mac.broadcast (Frame.Arp_body msg))

(* Gratuitous ARP: broadcast announce of [ip] at [dev]'s MAC, as
   `arping -A` after an address assignment.  Every listener's
   [arp_input] runs [arp_learn], so a neighbour holding a stale entry
   for a reused address (freed lease, re-allocated to a new pod with a
   new MAC) is corrected instead of blackholing until its entry ages
   out. *)
let garp (_ : ns) dev ip =
  let msg =
    { Frame.op = Frame.Request; sender_mac = dev.Dev.mac; sender_ip = ip;
      target_mac = Mac.of_int 0; target_ip = ip }
  in
  Dev.transmit dev
    (Frame.make ~src:dev.Dev.mac ~dst:Mac.broadcast (Frame.Arp_body msg))

let arp_retry_delay = Time.sec 1
let arp_max_tries = 3

let arp_resolve ns dev ip k =
  if dev.Dev.l2 = Dev.Reflector then k Mac.broadcast
  else
    match Ipv4.Tbl.find ns.arp_tbl ip with
    | mac -> k mac
    | exception Not_found -> (
      match Ipv4.Tbl.find_opt ns.arp_waiting ip with
      | Some q -> q := k :: !q
      | None ->
        Ipv4.Tbl.add ns.arp_waiting ip (ref [ k ]);
        (* Linux-style retry: re-probe a few times, then fail the queued
           transmissions (counted as unroutable). *)
        let rec attempt n =
          if Ipv4.Tbl.mem ns.arp_waiting ip then
            if n > arp_max_tries then begin
              let waiters =
                match Ipv4.Tbl.find_opt ns.arp_waiting ip with
                | Some q -> List.length !q
                | None -> 0
              in
              Ipv4.Tbl.remove ns.arp_waiting ip;
              note_drop ~n:waiters ns `No_route
            end
            else begin
              arp_request ns dev ip;
              Engine.schedule ns.eng ~delay:arp_retry_delay (fun () ->
                  attempt (n + 1))
            end
        in
        attempt 1)

let arp_learn ns ip mac =
  if not (Ipv4.equal ip Ipv4.any) then begin
    Ipv4.Tbl.replace ns.arp_tbl ip mac;
    match Ipv4.Tbl.find_opt ns.arp_waiting ip with
    | None -> ()
    | Some q ->
      let ks = List.rev !q in
      Ipv4.Tbl.remove ns.arp_waiting ip;
      List.iter (fun k -> k mac) ks
  end

let arp_flush ?ip ns =
  match ip with
  | Some ip -> Ipv4.Tbl.remove ns.arp_tbl ip
  | None -> Ipv4.Tbl.reset ns.arp_tbl

let arp_input ns dev (a : Frame.arp_msg) =
  arp_learn ns a.Frame.sender_ip a.Frame.sender_mac;
  match a.Frame.op with
  | Frame.Request ->
    let holds_target =
      List.exists
        (fun (d, ip, _) -> d == dev && Ipv4.equal ip a.Frame.target_ip)
        ns.addr_list
    in
    if holds_target then begin
      let reply =
        { Frame.op = Frame.Reply; sender_mac = dev.Dev.mac;
          sender_ip = a.Frame.target_ip; target_mac = a.Frame.sender_mac;
          target_ip = a.Frame.sender_ip }
      in
      Dev.transmit dev
        (Frame.make ~src:dev.Dev.mac ~dst:a.Frame.sender_mac
           (Frame.Arp_body reply))
    end
  | Frame.Reply -> ()

(* ------------------------------------------------------------------ *)
(* IP output                                                           *)

(* Forward declaration: local delivery needs the demux defined below. *)
let ip_local_input_ref : (ns -> Packet.t -> unit) ref =
  ref (fun _ _ -> assert false)

(* Would this packet, if it looped straight back in, find a local socket?
   Used on reflector (Hostlo) devices to decide between local delivery and
   transmission into the multiplexed loopback. *)
let local_socket_matches ns (pkt : Packet.t) =
  match pkt.Packet.transport with
  | Packet.Udp { dst_port; _ } -> Int_tbl.mem ns.udp_binds dst_port
  | Packet.Tcp { seg; _ } ->
    Conn_table.mem ns.conns ~lport:seg.Tcp_wire.dst_port ~rip:pkt.Packet.src
      ~rport:seg.Tcp_wire.src_port
    || (seg.Tcp_wire.flags.Tcp_wire.syn
       && (not seg.Tcp_wire.flags.Tcp_wire.ack)
       && Int_tbl.mem ns.listeners seg.Tcp_wire.dst_port)
  | Packet.Icmp_echo { id; reply; _ } ->
    if reply then Int_tbl.mem ns.icmp_waiters id else true

(* Frames a packet that POSTROUTING passed for the wire. *)
let emit ns ~(dev : Dev.t) ~next_hop pkt =
  if dev.Dev.l2 = Dev.Reflector then
    send_ip_frame dev ~dst_mac:Mac.broadcast pkt
  else
    match Ipv4.Tbl.find ns.arp_tbl next_hop with
    | mac -> send_ip_frame dev ~dst_mac:mac pkt
    | exception Not_found ->
      arp_resolve ns dev next_hop (fun mac ->
          send_ip_frame dev ~dst_mac:mac pkt)

(* POSTROUTING only: the packet met conntrack where it entered the
   namespace ([ip_input] or [ip_output]). *)
let transmit_via ns ~(dev : Dev.t) ~next_hop pkt =
  match
    Netfilter.run ns.nf_tbl Netfilter.Postrouting ~in_dev:""
      ~out_dev:dev.Dev.name pkt
  with
  | Netfilter.Drop -> note_drop ns `Filtered
  | v -> emit ns ~dev ~next_hop (Netfilter.passed pkt v)

let deliver_locally ns pkt =
  Hop.service_prov ?prov:(Packet.prov pkt) ns.cs.local ~extra_ns:0
    ~bytes:(Packet.len pkt) (fun () ->
      (match ns.lo with
      | Some lo -> Engine.trace_instant ns.eng ~cat:"hop" ~name:lo.Dev.name ()
      | None -> ());
      !ip_local_input_ref ns pkt)

(* A local packet meets conntrack once, before OUTPUT, so a bound flow
   is filtered and routed by its translated addresses (Linux semantics). *)
let ip_output ns pkt =
  let pkt = Conntrack.translate ns.ct_tbl pkt in
  match Netfilter.run ns.nf_tbl Netfilter.Output ~in_dev:"" ~out_dev:"" pkt with
  | Netfilter.Drop -> note_drop ns `Filtered
  | v -> (
    let pkt = Netfilter.passed pkt v in
    if is_local_addr ns pkt.Packet.dst then begin
      let dev = dev_holding_addr ns pkt.Packet.dst in
      if dev.Dev.l2 <> Dev.Reflector then deliver_locally ns pkt
      (* Hostlo: the destination is the pod's localhost; it is delivered
         here when a local socket would take it, and otherwise leaves
         through the reflector to the pod's other fractions. *)
      else if local_socket_matches ns pkt then deliver_locally ns pkt
      else transmit_via ns ~dev ~next_hop:pkt.Packet.dst pkt
    end
    else
      match Route.lookup ns.rt pkt.Packet.dst with
      | exception Not_found -> note_drop ns `No_route
      | e ->
        transmit_via ns ~dev:e.Route.dev
          ~next_hop:(Route.next_hop e pkt.Packet.dst) pkt)

(* ------------------------------------------------------------------ *)
(* TCP                                                                 *)

let tcp_register c =
  Conn_table.add c.c_ns.conns ~lport:c.c_local_port ~rip:c.c_remote_ip
    ~rport:c.c_remote_port c

let tcp_unregister c =
  Conn_table.remove c.c_ns.conns ~lport:c.c_local_port ~rip:c.c_remote_ip
    ~rport:c.c_remote_port

let tcp_make_segment ?framing c ~flags ~seq ~len =
  let seg =
    { Tcp_wire.src_port = c.c_local_port; dst_port = c.c_remote_port; seq;
      ack_seq = c.rcv_nxt; flags; window = rcvwnd_default; len; framing }
  in
  Packet.make ?prov:(fresh_prov c.c_ns)
    ~src:c.c_local_ip ~dst:c.c_remote_ip (Packet.Tcp { seg })

let tcp_xmit c pkt =
  c.pending_ack_segs <- 0;
  Hop.service_prov ?prov:(Packet.prov pkt) c.c_ns.cs.tx
    ~extra_ns:(nat_surcharge c.c_ns) ~bytes:(Packet.len pkt)
    (fun () -> ip_output c.c_ns pkt)

let flags_ack = { Tcp_wire.flags_none with Tcp_wire.ack = true }

let tcp_send_pure_ack c =
  tcp_xmit c (tcp_make_segment c ~flags:flags_ack ~seq:c.snd_nxt ~len:0)

let flags_syn = { Tcp_wire.flags_none with Tcp_wire.syn = true }
let flags_syn_ack = { flags_ack with Tcp_wire.syn = true }

(* The handshake hands each end its peer's framing ring: the SYN carries
   the client's, the SYN-ACK the server's. *)
let tcp_send_syn c ~flags =
  tcp_xmit c
    (tcp_make_segment ~framing:c.tx_framing c ~flags ~seq:0 ~len:0)

let tcp_learn_framing c (seg : Tcp_wire.t) =
  match seg.Tcp_wire.framing with
  | Some f -> c.rx_framing <- f
  | None -> ()

(* Resend the oldest unacknowledged segment, with its original bounds. *)
let tcp_resend_head c =
  if not (Seg_ring.is_empty c.inflight) then
    tcp_xmit c
      (tcp_make_segment c ~flags:flags_ack ~seq:(Seg_ring.head_seq c.inflight)
         ~len:(Seg_ring.head_len c.inflight))

let rec tcp_arm_rto c =
  if not c.rto_armed then begin
    c.rto_armed <- true;
    c.rto_una_at_arm <- c.snd_una;
    let delay = rto_initial * (1 lsl Int.min 6 c.rto_backoff) in
    schedule_in c.c_ns tcp_rto ~delay c.rto_k
  end

and tcp_rto_fire c =
  c.rto_armed <- false;
  if c.c_state <> Closed then begin
    let outstanding =
      c.snd_una < c.snd_nxt || c.c_state = Syn_sent || c.c_state = Syn_rcvd
    in
    if outstanding then
      if c.snd_una = c.rto_una_at_arm then
        if c.rto_backoff >= tcp_max_retries then begin
          (* tcp_retries2-style abort: the peer has acknowledged nothing
             across the whole backoff ladder — it is gone (crashed VM,
             partitioned path).  Without this cap a connection into a
             dead endpoint retransmits forever and a run-to-quiescence
             drain never terminates. *)
          c.c_state <- Closed;
          tcp_unregister c
        end
        else begin
        (* No progress since arming: retransmit. *)
        c.c_retransmits <- c.c_retransmits + 1;
        c.rto_backoff <- c.rto_backoff + 1;
        c.ssthresh <- Int.max (2 * c.c_mss) ((c.snd_nxt - c.snd_una) / 2);
        c.cwnd <- init_cwnd_segments * c.c_mss;
        (match c.c_state with
        | Syn_sent -> tcp_send_syn c ~flags:flags_syn
        | Syn_rcvd -> tcp_send_syn c ~flags:flags_syn_ack
        | _ -> tcp_resend_head c);
        tcp_arm_rto c
      end
      else tcp_arm_rto c
  end

let rec tcp_pump c =
  if c.c_state = Established then begin
    let window = Int.min c.cwnd c.peer_wnd in
    let inflight_bytes = c.snd_nxt - c.snd_una in
    if c.snd_nxt < c.send_off && inflight_bytes < window then begin
      let len =
        Int.min
          (Int.min c.c_mss (c.send_off - c.snd_nxt))
          (window - inflight_bytes)
      in
      if len > 0 then begin
        let seq = c.snd_nxt in
        c.snd_nxt <- seq + len;
        Seg_ring.push c.inflight ~seq ~len;
        tcp_arm_rto c;
        tcp_xmit c (tcp_make_segment c ~flags:flags_ack ~seq ~len);
        tcp_pump c
      end
    end
  end

let tcp_deliver c =
  if c.rcv_nxt > c.delivered_off then begin
    let bytes = c.rcv_nxt - c.delivered_off in
    c.delivered_off <- c.rcv_nxt;
    (* Every message ending at or below [rcv_nxt] is complete: the
       segment holding its last byte has arrived in order. *)
    let msgs = Tcp_wire.Framing.pop_upto c.rx_framing c.rcv_nxt in
    (* The consuming application must be scheduled before its receive
       callback runs. *)
    schedule_in c.c_ns tcp_wakeup ~delay:(wakeup_delay c.c_ns)
      (fun () -> c.on_receive ~bytes ~msgs)
  end

let tcp_delack_fire c () =
  c.delack_armed <- false;
  if c.c_state <> Closed && c.pending_ack_segs > 0 then tcp_send_pure_ack c

let tcp_schedule_delack c =
  if not c.delack_armed then begin
    c.delack_armed <- true;
    schedule_in c.c_ns tcp_delack ~delay:delack_delay c.delack_k
  end

let tcp_rx_data c (seg : Tcp_wire.t) =
  if seg.Tcp_wire.len > 0 then begin
    let seq = seg.Tcp_wire.seq and len = seg.Tcp_wire.len in
    if seq <= c.rcv_nxt && seq + len > c.rcv_nxt then begin
      c.rcv_nxt <- seq + len;
      (* Absorb any now-contiguous out-of-order segments. *)
      let rec drain () =
        match c.ooo with
        | (s, l) :: rest when s <= c.rcv_nxt ->
          if s + l > c.rcv_nxt then c.rcv_nxt <- s + l;
          c.ooo <- rest;
          drain ()
        | _ -> ()
      in
      drain ();
      tcp_deliver c;
      c.pending_ack_segs <- c.pending_ack_segs + 1;
      if c.pending_ack_segs >= ack_every_segments then tcp_send_pure_ack c
      else tcp_schedule_delack c
    end
    else if seq > c.rcv_nxt then begin
      (* Hole: stash and duplicate-ack. *)
      c.ooo <-
        List.sort (fun (a, _) (b, _) -> Int.compare a b) ((seq, len) :: c.ooo);
      tcp_send_pure_ack c
    end
    else
      (* Entirely old data: re-ack. *)
      tcp_send_pure_ack c
  end

let tcp_fast_retransmit c =
  (* RFC 5681-style: three duplicate ACKs signal a lost segment; resend
     the first unacknowledged one and halve the congestion window. *)
  if not (Seg_ring.is_empty c.inflight) then begin
    c.c_retransmits <- c.c_retransmits + 1;
    c.ssthresh <- Int.max (2 * c.c_mss) ((c.snd_nxt - c.snd_una) / 2);
    c.cwnd <- Int.max (2 * c.c_mss) c.ssthresh;
    tcp_resend_head c
  end

let tcp_rx_ack c (seg : Tcp_wire.t) =
  if seg.Tcp_wire.flags.Tcp_wire.ack then begin
    c.peer_wnd <- seg.Tcp_wire.window;
    let ack = seg.Tcp_wire.ack_seq in
    if ack = c.snd_una && seg.Tcp_wire.len = 0 && c.snd_nxt > c.snd_una
    then begin
      c.dup_acks <- c.dup_acks + 1;
      if c.dup_acks = 3 then tcp_fast_retransmit c
    end;
    if ack > c.snd_una then begin
      let acked = ack - c.snd_una in
      c.snd_una <- ack;
      c.rto_backoff <- 0;
      c.dup_acks <- 0;
      (* ACKs fall on segment boundaries: the acked segments are a
         prefix. *)
      Seg_ring.pop_acked c.inflight ~ack;
      (* Slow start below ssthresh, linear growth above, capped at the
         advertised receive window. *)
      if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + Int.min acked c.c_mss
      else c.cwnd <- c.cwnd + Int.max 1 (c.c_mss * c.c_mss / c.cwnd);
      if c.cwnd > rcvwnd_default then c.cwnd <- rcvwnd_default;
      if c.writable_waiting && c.send_off - c.snd_una <= c.c_sndbuf / 2
      then begin
        c.writable_waiting <- false;
        c.on_writable ()
      end;
      tcp_pump c
    end
  end

let tcp_close_conn c =
  if c.c_state <> Closed then begin
    c.c_state <- Closed;
    tcp_unregister c
  end

let tcp_conn_input c (pkt : Packet.t) (seg : Tcp_wire.t) =
  ignore pkt;
  if seg.Tcp_wire.flags.Tcp_wire.rst then tcp_close_conn c
  else
    match c.c_state with
    | Syn_sent ->
      if seg.Tcp_wire.flags.Tcp_wire.syn && seg.Tcp_wire.flags.Tcp_wire.ack
      then begin
        c.c_state <- Established;
        c.peer_wnd <- seg.Tcp_wire.window;
        tcp_learn_framing c seg;
        tcp_send_pure_ack c;
        c.on_established_cb c;
        tcp_pump c
      end
    | Syn_rcvd ->
      if seg.Tcp_wire.flags.Tcp_wire.ack then begin
        c.c_state <- Established;
        c.peer_wnd <- seg.Tcp_wire.window;
        c.on_established_cb c;
        tcp_rx_data c seg;
        tcp_pump c
      end
    | Established ->
      tcp_rx_ack c seg;
      tcp_rx_data c seg;
      if seg.Tcp_wire.flags.Tcp_wire.fin then begin
        (* Passive close: ack the FIN, send ours, await its ack. *)
        c.c_state <- Last_ack;
        tcp_xmit c
          (tcp_make_segment c
             ~flags:{ flags_ack with Tcp_wire.fin = true }
             ~seq:c.snd_nxt ~len:0)
      end
    | Fin_wait ->
      tcp_rx_ack c seg;
      tcp_rx_data c seg;
      if seg.Tcp_wire.flags.Tcp_wire.fin then begin
        tcp_send_pure_ack c;
        tcp_close_conn c
      end
    | Last_ack ->
      if seg.Tcp_wire.flags.Tcp_wire.ack then tcp_close_conn c
    | Closed -> ()

let alloc_ephemeral ns =
  let rec go tries =
    if tries > 16_384 then failwith "Stack: ephemeral ports exhausted";
    let p = ns.next_eph in
    ns.next_eph <- (if p >= 65_535 then ephemeral_base else p + 1);
    let busy =
      Int_tbl.mem ns.listeners p
      || Int_tbl.mem ns.udp_binds p
      || Conn_table.uses_port ns.conns p
    in
    if busy then go (tries + 1) else p
  in
  go 0

let mss_for ns dst =
  if is_local_addr ns dst then Dev.mss (dev_holding_addr ns dst)
  else
    match Route.lookup ns.rt dst with
    | e -> Dev.mss e.Route.dev
    | exception Not_found -> 1460

let src_for ns dst =
  if is_local_addr ns dst then dst
  else
    match Route.lookup ns.rt dst with
    | exception Not_found -> Ipv4.any
    | e -> (
      match e.Route.src with
      | Some s -> s
      | None -> Option.value (addr_of_dev ns e.Route.dev) ~default:Ipv4.any)

let tcp_fresh_conn ns ~local_ip ~local_port ~remote_ip ~remote_port ~state =
  let mss = mss_for ns remote_ip in
  let c =
    { c_ns = ns; c_local_ip = local_ip; c_local_port = local_port;
      c_remote_ip = remote_ip; c_remote_port = remote_port; c_mss = mss;
      c_state = state; snd_una = 0; snd_nxt = 0; send_off = 0;
      cwnd = init_cwnd_segments * mss; ssthresh = rcvwnd_default;
      peer_wnd = rcvwnd_default; tx_framing = Tcp_wire.Framing.create ();
      inflight = Seg_ring.create (); rto_armed = false; rto_una_at_arm = 0;
      rto_backoff = 0; dup_acks = 0; c_retransmits = 0; rcv_nxt = 0;
      delivered_off = 0; ooo = []; rx_framing = Tcp_wire.Framing.create ();
      pending_ack_segs = 0;
      delack_armed = false; pump_k = ignore; delack_k = ignore;
      rto_k = ignore;
      on_receive = (fun ~bytes:_ ~msgs:_ -> ());
      on_writable = (fun () -> ());
      writable_waiting = false;
      on_established_cb = (fun _ -> ());
      c_sndbuf = sndbuf_default }
  in
  c.pump_k <- (fun () -> tcp_pump c);
  c.delack_k <- tcp_delack_fire c;
  c.rto_k <- (fun () -> tcp_rto_fire c);
  c

let tcp_send_rst ns (pkt : Packet.t) (seg : Tcp_wire.t) =
  ns.cnt.rst_sent <- ns.cnt.rst_sent + 1;
  let rst =
    { Tcp_wire.src_port = seg.Tcp_wire.dst_port;
      dst_port = seg.Tcp_wire.src_port; seq = seg.Tcp_wire.ack_seq;
      ack_seq = seg.Tcp_wire.seq + seg.Tcp_wire.len;
      flags = { Tcp_wire.flags_none with Tcp_wire.rst = true; ack = true };
      window = 0; len = 0; framing = None }
  in
  ip_output ns
    (Packet.make ?prov:(fresh_prov ns)
       ~src:pkt.Packet.dst ~dst:pkt.Packet.src (Packet.Tcp { seg = rst }))

(* [on_reflector]: the segment came in on a reflector (Hostlo) device. *)
let tcp_input ns ~on_reflector (pkt : Packet.t) (seg : Tcp_wire.t) =
  match
    Conn_table.find ns.conns ~lport:seg.Tcp_wire.dst_port ~rip:pkt.Packet.src
      ~rport:seg.Tcp_wire.src_port
  with
  | c ->
    note_delivered ns;
    tcp_conn_input c pkt seg
  | exception Not_found -> (
    match Int_tbl.find ns.listeners seg.Tcp_wire.dst_port with
    | l
      when seg.Tcp_wire.flags.Tcp_wire.syn
           && not seg.Tcp_wire.flags.Tcp_wire.ack ->
      note_delivered ns;
      let c =
        tcp_fresh_conn ns ~local_ip:pkt.Packet.dst
          ~local_port:seg.Tcp_wire.dst_port ~remote_ip:pkt.Packet.src
          ~remote_port:seg.Tcp_wire.src_port ~state:Syn_rcvd
      in
      c.peer_wnd <- seg.Tcp_wire.window;
      tcp_learn_framing c seg;
      c.on_established_cb <- l.l_on_accept;
      tcp_register c;
      tcp_send_syn c ~flags:flags_syn_ack;
      tcp_arm_rto c
    | _ | (exception Not_found) ->
      note_drop ns `No_socket;
      (* Reflector endpoints see every frame of the multiplexed loopback;
         fractions that don't own the flow must stay silent (§4.2). *)
      if (not on_reflector) && not seg.Tcp_wire.flags.Tcp_wire.rst then
        tcp_send_rst ns pkt seg)

(* ------------------------------------------------------------------ *)
(* Demux and input                                                     *)

let icmp_input ns (pkt : Packet.t) ~id ~seq ~reply =
  if reply then begin
    match Int_tbl.find_opt ns.icmp_waiters id with
    | None -> note_drop ns `No_socket
    | Some (t0, k) ->
      Int_tbl.remove ns.icmp_waiters id;
      note_delivered ns;
      k ~rtt_ns:(Engine.now ns.eng - t0)
  end
  else begin
    note_delivered ns;
    let echo =
      Packet.make ?prov:(fresh_prov ns)
        ~src:pkt.Packet.dst ~dst:pkt.Packet.src
        (Packet.Icmp_echo { id; seq; reply = true })
    in
    ip_output ns echo
  end

let demux ns ~on_reflector (pkt : Packet.t) =
  (match ns.observer with None -> () | Some f -> f pkt);
  match pkt.Packet.transport with
  | Packet.Udp { src_port; dst_port; payload } -> (
    match Int_tbl.find ns.udp_binds dst_port with
    | s when not s.u_closed ->
      note_delivered ns;
      if s.u_kernel then s.u_recv s ~src:pkt.Packet.src ~src_port payload
      else
        schedule_in ns udp_wakeup ~delay:(wakeup_delay ns) (fun () ->
            if not s.u_closed then
              s.u_recv s ~src:pkt.Packet.src ~src_port payload)
    | _ | (exception Not_found) ->
      note_drop ns `No_socket)
  | Packet.Tcp { seg; _ } -> tcp_input ns ~on_reflector pkt seg
  | Packet.Icmp_echo { id; seq; reply } -> icmp_input ns pkt ~id ~seq ~reply

let ip_local_input ns pkt =
  match Netfilter.run ns.nf_tbl Netfilter.Input ~in_dev:"" ~out_dev:"" pkt with
  | Netfilter.Drop -> note_drop ns `Filtered
  | v -> demux ns ~on_reflector:false (Netfilter.passed pkt v)

let () = ip_local_input_ref := ip_local_input

(* After PREROUTING: local delivery or forwarding. *)
let routed_input ns (dev : Dev.t) (pkt : Packet.t) =
  let in_dev = dev.Dev.name in
  if is_local_addr ns pkt.Packet.dst then begin
    match Netfilter.run ns.nf_tbl Netfilter.Input ~in_dev ~out_dev:"" pkt with
    | Netfilter.Drop -> note_drop ns `Filtered
    | v ->
      demux ns ~on_reflector:(dev.Dev.l2 = Dev.Reflector)
        (Netfilter.passed pkt v)
  end
  else if ns.fwd then begin
    match Netfilter.run ns.nf_tbl Netfilter.Forward ~in_dev ~out_dev:"" pkt with
    | Netfilter.Drop -> note_drop ns `Filtered
    | v -> (
      let pkt = Netfilter.passed pkt v in
      if Packet.ttl_expired pkt then note_drop ns `Ttl
      else
        let pkt = Packet.decrement_ttl pkt in
        match Route.lookup ns.rt pkt.Packet.dst with
        | exception Not_found -> note_drop ns `No_route
        | e ->
          ns.cnt.forwarded_pkts <- ns.cnt.forwarded_pkts + 1;
          Hop.service_prov ?prov:(Packet.prov pkt) ns.cs.forward ~extra_ns:0
            ~bytes:(Packet.len pkt) (fun () ->
              transmit_via ns ~dev:e.Route.dev
                ~next_hop:(Route.next_hop e pkt.Packet.dst) pkt))
  end
  else note_drop ns `No_route

(* Input from a device, after the rx hop has been paid.  A conntrack
   binding skips the NAT rules (Linux semantics). *)
let ip_input ns (dev : Dev.t) (pkt : Packet.t) =
  let nat = Conntrack.translate ns.ct_tbl pkt in
  if nat != pkt then routed_input ns dev nat
  else
    match
      Netfilter.run ns.nf_tbl Netfilter.Prerouting ~in_dev:dev.Dev.name
        ~out_dev:"" pkt
    with
    | Netfilter.Drop -> note_drop ns `Filtered
    | v -> routed_input ns dev (Netfilter.passed pkt v)

let dev_rx ns dev frame =
  (* L2 address filter. *)
  let accept =
    Frame.is_broadcast frame
    || Mac.equal frame.Frame.dst dev.Dev.mac
    || dev.Dev.l2 = Dev.Reflector
  in
  if accept then begin
    match frame.Frame.body with
    | Frame.Arp_body a ->
      Hop.service ns.cs.rx ~bytes:(Frame.len frame) (fun () ->
          arp_input ns dev a)
    | Frame.Ipv4_body pkt ->
      Hop.service_prov ?prov:(Frame.prov frame) ns.cs.rx
        ~extra_ns:(nat_surcharge ns) ~bytes:(Frame.len frame)
        (fun () -> ip_input ns dev pkt)
  end

(* ------------------------------------------------------------------ *)
(* Namespace construction and device management                        *)

let add_addr ns dev ip cidr =
  ns.addr_list <- ns.addr_list @ [ (dev, ip, cidr) ];
  Route.add ns.rt ~dst:cidr ~dev ~src:ip ()

let attach ns dev =
  ns.devs <- ns.devs @ [ dev ];
  Dev.set_rx dev (fun frame -> dev_rx ns dev frame)

let create engine ~name ~costs ?(with_loopback = true) ?rng () =
  let cnt =
    { delivered = 0; forwarded_pkts = 0; dropped_no_socket = 0;
      dropped_no_route = 0; dropped_filtered = 0; dropped_ttl = 0;
      rst_sent = 0 }
  in
  let ns =
    { ns_name = name; eng = engine; cs = costs; nf_tbl = Netfilter.create ();
      ct_tbl = Conntrack.create (); rt = Route.create (); devs = [];
      addr_list = []; arp_tbl = Ipv4.Tbl.create 16;
      arp_waiting = Ipv4.Tbl.create 4; udp_binds = Int_tbl.create 16;
      listeners = Int_tbl.create 8; conns = Conn_table.create 32;
      icmp_waiters = Int_tbl.create 4; next_eph = ephemeral_base;
      next_icmp_id = 1; fwd = false; prov_all = false;
      prov_tick = 0; cnt;
      timer_lbls = Array.make (Array.length timer_kinds) None;
      lo = None; observer = None;
      ns_rng =
        Nest_sim.Prng.split
          (match rng with Some r -> r | None -> Engine.rng engine) }
  in
  (* Each namespace owns its costs record (Kernel_costs.stack_costs builds
     fresh hops per call), so its hops can carry attribution names. *)
  Hop.set_name costs.tx (name ^ ":tx");
  Hop.set_name costs.rx (name ^ ":rx");
  Hop.set_name costs.forward (name ^ ":fwd");
  Hop.set_name costs.local (name ^ ":lo");
  Hop.set_name costs.syscall (name ^ ":syscall");
  if with_loopback then begin
    let lo =
      Dev.create ~mtu:loopback_mtu ~name:(name ^ ":lo") ~mac:(Mac.of_int 0) ()
    in
    ns.lo <- Some lo;
    attach ns lo;
    add_addr ns lo Ipv4.localhost lo_subnet
  end;
  (* Export the datapath counters on the engine's registry.  Probes read
     the live [cnt] record at snapshot time, so there is a single source
     of truth and no double accounting. *)
  let m = Engine.metrics engine in
  let reg field f =
    Metrics.gauge_probe m (Printf.sprintf "ns.%s.%s" name field) (fun () ->
        float_of_int (f cnt))
  in
  reg "delivered" (fun c -> c.delivered);
  reg "forwarded" (fun c -> c.forwarded_pkts);
  reg "dropped_no_socket" (fun c -> c.dropped_no_socket);
  reg "dropped_no_route" (fun c -> c.dropped_no_route);
  reg "dropped_filtered" (fun c -> c.dropped_filtered);
  reg "dropped_ttl" (fun c -> c.dropped_ttl);
  reg "rst_sent" (fun c -> c.rst_sent);
  ns

(* ------------------------------------------------------------------ *)
(* Socket APIs                                                         *)

module Udp = struct
  type sock = udp_sock

  let bind ns ~port ?(kernel = false) recv =
    let port = if port = 0 then alloc_ephemeral ns else port in
    if Int_tbl.mem ns.udp_binds port then
      failwith
        (Printf.sprintf "Stack.Udp.bind: port %d busy in %s" port ns.ns_name);
    let s =
      { u_ns = ns; u_port = port; u_kernel = kernel; u_recv = recv;
        u_closed = false }
    in
    Int_tbl.replace ns.udp_binds port s;
    s

  let sendto ?prov s ~dst ~dst_port payload =
    let ns = s.u_ns in
    let src = src_for ns dst in
    (* [prov] lets a tunnel (vxlan) thread the inner frame's record onto
       the outer datagram; otherwise a record is minted when the
       namespace has provenance enabled. *)
    let prov = match prov with Some _ as p -> p | None -> fresh_prov ns in
    let pkt =
      Packet.make ?prov ~src ~dst
        (Packet.Udp { src_port = s.u_port; dst_port; payload })
    in
    Hop.service_prov ?prov:(Packet.prov pkt) ns.cs.tx
      ~extra_ns:(ns.cs.syscall.Hop.fixed_ns + nat_surcharge ns)
      ~bytes:(Packet.len pkt)
      (fun () -> ip_output ns pkt)

  let close s =
    s.u_closed <- true;
    Int_tbl.remove s.u_ns.udp_binds s.u_port

  let port s = s.u_port
end

module Tcp = struct
  type conn = tcp_conn

  let listen ns ~port ~on_accept =
    if Int_tbl.mem ns.listeners port then
      failwith
        (Printf.sprintf "Stack.Tcp.listen: port %d busy in %s" port ns.ns_name);
    Int_tbl.replace ns.listeners port { l_on_accept = on_accept }

  let unlisten ns ~port = Int_tbl.remove ns.listeners port

  let connect ns ~dst ~port ~on_established () =
    let local_ip = src_for ns dst in
    let local_port = alloc_ephemeral ns in
    let c =
      tcp_fresh_conn ns ~local_ip ~local_port ~remote_ip:dst ~remote_port:port
        ~state:Syn_sent
    in
    c.on_established_cb <- on_established;
    tcp_register c;
    tcp_send_syn c ~flags:flags_syn;
    tcp_arm_rto c;
    c

  let send c ~size ?msg () =
    if size <= 0 then invalid_arg "Stack.Tcp.send: size must be > 0";
    if c.c_state = Closed then false
    else if c.send_off - c.snd_una + size > c.c_sndbuf then begin
      c.writable_waiting <- true;
      false
    end
    else begin
      c.send_off <- c.send_off + size;
      (match msg with
      | Some m -> Tcp_wire.Framing.push c.tx_framing ~off:c.send_off m
      | None -> ());
      Hop.service c.c_ns.cs.syscall ~bytes:size c.pump_k;
      true
    end

  let set_on_receive c f = c.on_receive <- f
  let set_on_writable c f = c.on_writable <- f

  let close c =
    match c.c_state with
    | Closed -> ()
    | Syn_sent | Syn_rcvd ->
      c.c_state <- Closed;
      tcp_unregister c
    | Established ->
      c.c_state <- Fin_wait;
      tcp_xmit c
        (tcp_make_segment c
           ~flags:{ flags_ack with Tcp_wire.fin = true }
           ~seq:c.snd_nxt ~len:0)
    | Fin_wait | Last_ack -> ()

  let sndbuf_limit c = c.c_sndbuf
  let is_established c = c.c_state = Established
  let is_closed c = c.c_state = Closed
  let local_endpoint c = (c.c_local_ip, c.c_local_port)
  let remote_endpoint c = (c.c_remote_ip, c.c_remote_port)
  let bytes_acked c = c.snd_una
  let retransmits c = c.c_retransmits
end

let ping ns ~dst ~on_reply =
  let id = ns.next_icmp_id in
  ns.next_icmp_id <- ns.next_icmp_id + 1;
  Int_tbl.replace ns.icmp_waiters id (Engine.now ns.eng, on_reply);
  let pkt =
    Packet.make ?prov:(fresh_prov ns)
      ~src:(src_for ns dst) ~dst
      (Packet.Icmp_echo { id; seq = 1; reply = false })
  in
  Hop.service_prov ?prov:(Packet.prov pkt) ns.cs.tx ~extra_ns:0
    ~bytes:(Packet.len pkt) (fun () -> ip_output ns pkt)
