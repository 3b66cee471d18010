(* Unit + property tests for the networking substrate. *)

open Nest_net
module Engine = Nest_sim.Engine

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Addresses *)

let test_mac_roundtrip =
  QCheck.Test.make ~name:"mac of_string/to_string roundtrip" ~count:300
    QCheck.(int_bound ((1 lsl 30) - 1))
    (fun i ->
      let m = Mac.of_int i in
      Mac.equal m (Mac.of_string (Mac.to_string m)))

let test_mac_basics () =
  Alcotest.(check string) "format" "00:00:00:00:01:02"
    (Mac.to_string (Mac.of_int 0x0102));
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.check_raises "bad parse" (Invalid_argument "Mac.of_string: zz")
    (fun () -> ignore (Mac.of_string "zz"))

let test_mac_alloc_unique () =
  let a = Mac.Alloc.create () in
  let macs = List.init 1000 (fun _ -> Mac.Alloc.fresh a) in
  Alcotest.(check int) "all distinct" 1000
    (List.length (List.sort_uniq compare (List.map Mac.to_int macs)));
  List.iter
    (fun m ->
      let hi = Mac.to_int m lsr 40 in
      Alcotest.(check bool) "locally administered unicast" true
        (hi land 0x02 = 0x02 && hi land 0x01 = 0))
    macs

let test_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 of_string/to_string roundtrip" ~count:300
    QCheck.(int_bound 0xffffff)
    (fun i ->
      let ip = Ipv4.of_int (i * 199) in
      Ipv4.equal ip (Ipv4.of_string (Ipv4.to_string ip)))

let test_cidr () =
  let c = Ipv4.cidr_of_string "10.1.2.0/24" in
  Alcotest.(check bool) "member" true (Ipv4.in_subnet c (Ipv4.of_string "10.1.2.77"));
  Alcotest.(check bool) "non member" false
    (Ipv4.in_subnet c (Ipv4.of_string "10.1.3.1"));
  Alcotest.(check string) "network" "10.1.2.0" (Ipv4.to_string (Ipv4.network c));
  Alcotest.(check string) "broadcast" "10.1.2.255"
    (Ipv4.to_string (Ipv4.broadcast_addr c));
  Alcotest.(check string) "host 5" "10.1.2.5" (Ipv4.to_string (Ipv4.host c 5));
  (* Base is masked. *)
  Alcotest.(check string) "masked base" "192.168.0.0/16"
    (Ipv4.cidr_to_string (Ipv4.cidr_of_string "192.168.3.4/16"))

(* ------------------------------------------------------------------ *)
(* Packet / frame *)

let udp_pkt ?(src = "10.0.0.1") ?(dst = "10.0.0.2") ?(sport = 1111)
    ?(dport = 2222) ?(size = 100) () =
  Packet.make ~src:(Ipv4.of_string src) ~dst:(Ipv4.of_string dst)
    (Packet.Udp { src_port = sport; dst_port = dport; payload = Payload.raw size })

let test_packet_len () =
  Alcotest.(check int) "udp len = 20 + 8 + payload" 128
    (Packet.len (udp_pkt ~size:100 ()));
  let tcp =
    Packet.make ~src:Ipv4.localhost ~dst:Ipv4.localhost
      (Packet.Tcp
         { seg =
             { Tcp_wire.src_port = 1; dst_port = 2; seq = 0; ack_seq = 0;
               flags = Tcp_wire.flags_none; window = 0; len = 500;
               framing = None } })
  in
  Alcotest.(check int) "tcp len = 20 + 20 + payload" 540 (Packet.len tcp)

let test_packet_rewrites () =
  let p = udp_pkt () in
  let p' = Packet.rewrite p ~src:(Some (Ipv4.of_string "1.2.3.4", 9)) ~dst:None in
  Alcotest.(check bool) "a fresh packet" true (p' != p);
  Alcotest.(check (option (pair int int))) "ports" (Some (9, 2222)) (Packet.ports p');
  Alcotest.(check string) "src" "1.2.3.4" (Ipv4.to_string p'.Packet.src);
  Alcotest.(check string) "dst unchanged" "10.0.0.2" (Ipv4.to_string p'.Packet.dst)

let test_ttl () =
  let rec burn p n =
    if Packet.ttl_expired p then n else burn (Packet.decrement_ttl p) (n + 1)
  in
  Alcotest.(check int) "default ttl allows 63 hops" 63 (burn (udp_pkt ()) 0)

let test_frame_len_minimum () =
  let f =
    Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
      (Frame.Ipv4_body (udp_pkt ~size:1 ()))
  in
  Alcotest.(check int) "runt padded to 60" 60 (Frame.len f)

let test_trace_shared_across_reframe () =
  let module P = Nest_sim.Provenance in
  let prov = P.create () in
  let p = Packet.make ~prov ~src:Ipv4.localhost ~dst:Ipv4.localhost
      (Packet.Icmp_echo { id = 1; seq = 1; reply = false })
  in
  let mark f hop = Option.iter (fun r -> P.mark_after r ~hop) (Frame.prov f) in
  let f1 = Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2) (Frame.Ipv4_body p) in
  mark f1 "a";
  (* NAT rewrite + new frame at the next hop.  The frame takes the
     packet's record, not the one offered to it. *)
  let p2 = Packet.rewrite p ~src:None ~dst:(Some (Ipv4.of_string "9.9.9.9", 0)) in
  let f2 =
    Frame.make ~prov:(P.create ()) ~src:(Mac.of_int 3) ~dst:(Mac.of_int 4)
      (Frame.Ipv4_body p2)
  in
  mark f2 "b";
  Alcotest.(check bool) "frame shares the rewritten packet's record" true
    (match Frame.prov f2 with Some r -> r == prov | None -> false);
  Alcotest.(check (list string)) "provenance survives rewrite and reframe"
    [ "a"; "b" ] (P.hops prov)

(* ------------------------------------------------------------------ *)
(* Ipam *)

let test_ipam_unique =
  QCheck.Test.make ~name:"ipam allocations are unique and in-subnet" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let pool = Ipv4.cidr_of_string "172.30.0.0/22" in
      let ipam = Ipam.create pool in
      let ips = List.init n (fun _ -> Ipam.alloc ipam) in
      List.length (List.sort_uniq Ipv4.compare ips) = n
      && List.for_all (Ipv4.in_subnet pool) ips)

let test_ipam_exhaustion_and_free () =
  let ipam = Ipam.create (Ipv4.cidr_of_string "10.9.0.0/30") in
  (* /30 has 2 usable hosts. *)
  Alcotest.(check int) "capacity" 2 (Ipam.capacity ipam);
  let a = Ipam.alloc ipam in
  let _b = Ipam.alloc ipam in
  Alcotest.check_raises "exhausted" (Failure "Ipam.alloc: pool exhausted")
    (fun () -> ignore (Ipam.alloc ipam));
  Ipam.free ipam a;
  Alcotest.check_raises "double free"
    (Invalid_argument ("Ipam.free: not allocated: " ^ Ipv4.to_string a))
    (fun () -> Ipam.free ipam a);
  let c = Ipam.alloc ipam in
  Alcotest.(check bool) "freed address reusable" true (Ipv4.equal a c)

let test_ipam_reserved () =
  let gw = Ipv4.of_string "10.8.0.1" in
  let ipam = Ipam.create ~reserved:[ gw ] (Ipv4.cidr_of_string "10.8.0.0/29") in
  let all = List.init (Ipam.capacity ipam) (fun _ -> Ipam.alloc ipam) in
  Alcotest.(check bool) "gateway never handed out" false
    (List.exists (Ipv4.equal gw) all)

(* ------------------------------------------------------------------ *)
(* Route *)

let dummy_dev name = Dev.create ~name ~mac:(Mac.of_int 42) ()

let test_route_lpm () =
  let rt = Route.create () in
  let d0 = dummy_dev "default" and d1 = dummy_dev "wide" and d2 = dummy_dev "narrow" in
  Route.add_default rt ~gateway:(Ipv4.of_string "192.168.0.1") ~dev:d0 ();
  Route.add rt ~dst:(Ipv4.cidr_of_string "10.0.0.0/8") ~dev:d1 ();
  Route.add rt ~dst:(Ipv4.cidr_of_string "10.0.5.0/24") ~dev:d2 ();
  let via ip =
    match Route.lookup rt (Ipv4.of_string ip) with
    | e -> e.Route.dev.Dev.name
    | exception Not_found -> "none"
  in
  Alcotest.(check string) "longest prefix" "narrow" (via "10.0.5.9");
  Alcotest.(check string) "wider" "wide" (via "10.9.0.1");
  Alcotest.(check string) "default" "default" (via "8.8.8.8");
  let e = Route.lookup rt (Ipv4.of_string "8.8.8.8") in
  Alcotest.(check string) "gateway next hop" "192.168.0.1"
    (Ipv4.to_string (Route.next_hop e (Ipv4.of_string "8.8.8.8")));
  let e2 = Route.lookup rt (Ipv4.of_string "10.0.5.9") in
  Alcotest.(check string) "on-link next hop" "10.0.5.9"
    (Ipv4.to_string (Route.next_hop e2 (Ipv4.of_string "10.0.5.9")));
  Route.remove_dev rt d2;
  Alcotest.(check string) "after removal" "wide" (via "10.0.5.9");
  (* A wider route added last sits first in the table: the narrower one
     behind it must still win. *)
  Route.add rt ~dst:(Ipv4.cidr_of_string "8.0.0.0/6") ~dev:(dummy_dev "wider") ();
  Alcotest.(check string) "/8 beats a later /6" "wide" (via "10.0.5.9");
  Alcotest.(check string) "/6 beats the default" "wider" (via "9.1.1.1");
  Alcotest.check_raises "no match without a default" Not_found (fun () ->
      ignore (Route.lookup (Route.create ()) (Ipv4.of_string "8.8.8.8")))

let test_route_recency_ties () =
  let rt = Route.create () in
  let d1 = dummy_dev "old" and d2 = dummy_dev "new" in
  Route.add rt ~dst:(Ipv4.cidr_of_string "10.0.0.0/24") ~dev:d1 ();
  Route.add rt ~dst:(Ipv4.cidr_of_string "10.0.0.0/24") ~dev:d2 ();
  let via () =
    (Route.lookup rt (Ipv4.of_string "10.0.0.5")).Route.dev.Dev.name
  in
  Alcotest.(check string) "most recent equal-prefix wins" "new" (via ());
  Route.remove_dev rt d2;
  Alcotest.(check string) "older entry resurfaces after remove_dev" "old"
    (via ())

(* ------------------------------------------------------------------ *)
(* Netfilter / conntrack *)

let test_netfilter_order_and_mangle () =
  let nf = Netfilter.create () in
  let order = ref [] in
  let mk name verdict =
    { Netfilter.rule_name = name;
      matches = (fun ~in_dev:_ ~out_dev:_ _ -> true);
      action =
        (fun p ->
          order := name :: !order;
          verdict p) }
  in
  Netfilter.append nf Netfilter.Input (mk "first" (fun p ->
      Netfilter.Mangle
        (Packet.rewrite p ~src:(Some (Ipv4.of_string "7.7.7.7", 1111)) ~dst:None)));
  Netfilter.append nf Netfilter.Input (mk "second" (fun _ -> Netfilter.Accept));
  let pkt = udp_pkt () in
  (match Netfilter.run nf Netfilter.Input ~in_dev:"" ~out_dev:"" pkt with
  | Netfilter.Drop -> Alcotest.fail "dropped"
  | v ->
    Alcotest.(check string) "mangled src visible downstream" "7.7.7.7"
      (Ipv4.to_string (Netfilter.passed pkt v).Packet.src));
  Alcotest.(check (list string)) "rule order" [ "first"; "second" ]
    (List.rev !order);
  Alcotest.(check int) "rule count" 2 (Netfilter.rule_count nf Netfilter.Input)

let test_netfilter_drop_and_remove () =
  let nf = Netfilter.create () in
  Helpers.drop_from nf ~name:"deny" ~hook:Netfilter.Forward
    ~src_subnet:(Ipv4.cidr_of_string "10.0.0.0/8");
  let run () =
    Netfilter.run nf Netfilter.Forward ~in_dev:"" ~out_dev:"" (udp_pkt ())
  in
  Alcotest.(check bool) "dropped" true (run () = Netfilter.Drop);
  Netfilter.remove nf Netfilter.Forward "deny";
  Alcotest.(check bool) "accepted after removal" true (run () = Netfilter.Accept)

let test_conntrack_snat_reverse =
  QCheck.Test.make ~name:"snat then reply-translate restores the original flow"
    ~count:200
    QCheck.(quad (int_bound 0xffff) (int_bound 0xffff) (int_range 1 65000) (int_range 1 65000))
    (fun (s, d, sp, dp) ->
      let ct = Conntrack.create () in
      let nat_ip = Ipv4.of_string "10.0.0.1" in
      let pkt =
        Packet.make
          ~src:(Ipv4.of_int (0x0a640000 lor s))
          ~dst:(Ipv4.of_int (0x0a650000 lor d))
          (Packet.Udp { src_port = sp; dst_port = dp; payload = Payload.raw 10 })
      in
      let out = Conntrack.snat ct pkt ~to_ip:nat_ip in
      (* Build the reply to the translated packet. *)
      let out_sp, out_dp = Option.get (Packet.ports out) in
      let reply =
        Packet.make ~src:out.Packet.dst ~dst:out.Packet.src
          (Packet.Udp { src_port = out_dp; dst_port = out_sp; payload = Payload.raw 10 })
      in
      let back = Conntrack.translate ct reply in
      let back_sp, back_dp = Option.get (Packet.ports back) in
      back != reply
      && Ipv4.equal back.Packet.dst pkt.Packet.src
      && back_dp = sp && back_sp = dp)

let test_conntrack_snat_stable () =
  let ct = Conntrack.create () in
  let nat_ip = Ipv4.of_string "10.0.0.1" in
  let p = udp_pkt () in
  let a = Conntrack.snat ct p ~to_ip:nat_ip in
  let b = Conntrack.snat ct p ~to_ip:nat_ip in
  Alcotest.(check bool) "same binding for same flow" true
    (Packet.ports a = Packet.ports b);
  Alcotest.(check int) "two entries (fwd + reply)" 2 (Conntrack.entry_count ct)

let test_conntrack_dnat () =
  let ct = Conntrack.create () in
  let p = udp_pkt ~dst:"10.0.0.2" ~dport:8080 () in
  let fwd = Conntrack.dnat ct p ~to_ip:(Ipv4.of_string "172.17.0.5") ~to_port:80 in
  Alcotest.(check string) "redirected" "172.17.0.5" (Ipv4.to_string fwd.Packet.dst);
  Alcotest.(check (option (pair int int))) "port" (Some (1111, 80)) (Packet.ports fwd);
  (* Reply from the container must be re-sourced as the published addr. *)
  let reply =
    Packet.make ~src:(Ipv4.of_string "172.17.0.5") ~dst:p.Packet.src
      (Packet.Udp { src_port = 80; dst_port = 1111; payload = Payload.raw 10 })
  in
  let back = Conntrack.translate ct reply in
  Alcotest.(check bool) "reply translated" true (back != reply);
  Alcotest.(check string) "source restored to published address" "10.0.0.2"
    (Ipv4.to_string back.Packet.src)

(* The O(1) rule total must track every [append]/[remove], including
   removals of a name present several times and of a name never added. *)
let test_netfilter_total_rules =
  let hooks =
    [| Netfilter.Prerouting; Netfilter.Input; Netfilter.Forward;
       Netfilter.Output; Netfilter.Postrouting |]
  in
  QCheck.Test.make ~name:"total_rules = sum of rule_count after any append/remove"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) (triple bool (int_bound 4) (int_bound 5)))
    (fun ops ->
      let nf = Netfilter.create () in
      let summed () =
        Array.fold_left (fun a h -> a + Netfilter.rule_count nf h) 0 hooks
      in
      List.for_all
        (fun (add, h, n) ->
          (* Names 4 and 5 are only ever removed: always absent. *)
          let name = Printf.sprintf "r%d" n in
          if add && n < 4 then
            Netfilter.append nf hooks.(h)
              { Netfilter.rule_name = name; matches = (fun ~in_dev:_ ~out_dev:_ _ -> true);
                action = (fun _ -> Netfilter.Accept) }
          else Netfilter.remove nf hooks.(h) name;
          Netfilter.total_rules nf = summed ())
        ops)

let tcp_pkt ~src ~dst ~sport ~dport =
  let seg =
    { Tcp_wire.src_port = sport; dst_port = dport; seq = 0; ack_seq = 0;
      flags = Tcp_wire.flags_none; window = 0; len = 0; framing = None }
  in
  Packet.make ~src ~dst (Packet.Tcp { seg })

(* The flow key's equality covers the protocol: a UDP and a TCP flow on
   the same addresses and ports are two connections, each with its own
   binding pair, and a reply only matches its own protocol's binding.
   The source port is one at which the two flows' hashes under the
   binding table's own hash agree in their low 10 bits, so they share a
   bucket in any table of up to 1024 buckets and only the table's
   equality can tell them apart. *)
let test_conntrack_proto_distinct () =
  let ct = Conntrack.create () in
  let nat_ip = Ipv4.of_string "10.0.0.1" in
  let src = Ipv4.of_string "172.17.0.2" and dst = Ipv4.of_string "10.9.9.9" in
  let udp sport =
    udp_pkt ~src:"172.17.0.2" ~dst:"10.9.9.9" ~sport ~dport:53 ()
  in
  let tcp sport = tcp_pkt ~src ~dst ~sport ~dport:53 in
  let bucket p = Conntrack.flow_hash (Conntrack.flow_of_packet p) land 1023 in
  let rec same_bucket sport =
    if bucket (udp sport) = bucket (tcp sport) then sport
    else same_bucket (sport + 1)
  in
  let sport = same_bucket 1024 in
  let udp = udp sport and tcp = tcp sport in
  let udp_out = Conntrack.snat ct udp ~to_ip:nat_ip in
  let tcp_out = Conntrack.snat ct tcp ~to_ip:nat_ip in
  Alcotest.(check int) "two binding pairs" 4 (Conntrack.entry_count ct);
  let nat_port p = fst (Option.get (Packet.ports p)) in
  Alcotest.(check bool) "distinct NAT ports" true
    (nat_port udp_out <> nat_port tcp_out);
  let udp_reply ~to_port =
    Packet.make ~src:dst ~dst:nat_ip
      (Packet.Udp { src_port = 53; dst_port = to_port; payload = Payload.raw 10 })
  in
  let reply = udp_reply ~to_port:(nat_port udp_out) in
  let back = Conntrack.translate ct reply in
  Alcotest.(check bool) "udp reply translated" true (back != reply);
  Alcotest.(check (option (pair int int)))
    "udp reply restored" (Some (53, sport)) (Packet.ports back);
  let tcp_reply = tcp_pkt ~src:dst ~dst:nat_ip ~sport:53 ~dport:(nat_port tcp_out) in
  let back = Conntrack.translate ct tcp_reply in
  Alcotest.(check bool) "tcp reply translated" true (back != tcp_reply);
  Alcotest.(check string) "tcp reply to the original source" "172.17.0.2"
    (Ipv4.to_string back.Packet.dst);
  let stray = udp_reply ~to_port:(nat_port tcp_out) in
  Alcotest.(check bool) "udp reply on the tcp binding's port misses" true
    (Conntrack.translate ct stray == stray)

(* ICMP has no ports: SNAT keeps the echo identifier, so the reply is
   matched by it and delivered back to the original source. *)
let test_conntrack_icmp_id_survives_snat () =
  let ct = Conntrack.create () in
  let nat_ip = Ipv4.of_string "10.0.0.1" in
  let src = Ipv4.of_string "172.17.0.2" and dst = Ipv4.of_string "10.9.9.9" in
  let echo reply ~src ~dst =
    Packet.make ~src ~dst (Packet.Icmp_echo { id = 77; seq = 3; reply })
  in
  let id_of p =
    match p.Packet.transport with
    | Packet.Icmp_echo { id; _ } -> id
    | Packet.Udp _ | Packet.Tcp _ -> -1
  in
  let out = Conntrack.snat ct (echo false ~src ~dst) ~to_ip:nat_ip in
  Alcotest.(check string) "source rewritten" "10.0.0.1"
    (Ipv4.to_string out.Packet.src);
  Alcotest.(check int) "echo id kept" 77 (id_of out);
  let reply = echo true ~src:dst ~dst:nat_ip in
  let back = Conntrack.translate ct reply in
  Alcotest.(check bool) "reply translated" true (back != reply);
  Alcotest.(check string) "reply to the original source" "172.17.0.2"
    (Ipv4.to_string back.Packet.dst);
  Alcotest.(check int) "reply id kept" 77 (id_of back)

(* The two tables with one lookup key against association-list models, over
   random sequences on a small pool of addresses and ports, so flows
   share endpoints and NAT bindings collide with later packets' flows.
   A lookup key that leaked into a table would be rewritten by the next
   lookup, and the table would stop answering like its model. *)
let pool_ip = Array.map Ipv4.of_string [| "10.0.0.1"; "10.0.0.2"; "10.0.0.3" |]
let pool_port = [| 1; 2; 32768; 32769 |]

(* (proto, src, sport, dst, dport), ICMP's echo id as both ports. *)
let flow_view (p : Packet.t) =
  let s = Ipv4.to_int p.Packet.src and d = Ipv4.to_int p.Packet.dst in
  match p.Packet.transport with
  | Packet.Udp { src_port; dst_port; _ } -> (0, s, src_port, d, dst_port)
  | Packet.Tcp { seg } ->
    (1, s, seg.Tcp_wire.src_port, d, seg.Tcp_wire.dst_port)
  | Packet.Icmp_echo { id; _ } -> (2, s, id, d, id)

let pool_packet (proto, (src, sport, dst, dport)) =
  let src = pool_ip.(src) and dst = pool_ip.(dst) in
  let sport = pool_port.(sport) and dport = pool_port.(dport) in
  match proto with
  | 0 ->
    Packet.make ~src ~dst
      (Packet.Udp
         { src_port = sport; dst_port = dport; payload = Payload.raw 8 })
  | 1 -> tcp_pkt ~src ~dst ~sport ~dport
  | _ ->
    Packet.make ~src ~dst
      (Packet.Icmp_echo { id = sport; seq = 1; reply = false })

(* A binding's rewrite in the model: new (ip, port) of either end; ICMP
   keeps its id. *)
let model_apply (new_src, new_dst) (proto, s, sp, d, dp) =
  let move (ip, port) = function
    | Some (ip', port') -> (ip', if proto = 2 then port else port')
    | None -> (ip, port)
  in
  let s, sp = move (s, sp) new_src and d, dp = move (d, dp) new_dst in
  (proto, s, sp, d, dp)

let test_conntrack_matches_model =
  let b = QCheck.int_bound in
  let flow = QCheck.(pair (b 2) (quad (b 2) (b 3) (b 2) (b 3))) in
  let op = QCheck.(triple (b 2) flow (pair (b 2) (b 3))) in
  QCheck.Test.make
    ~name:"conntrack with one lookup key answers like an assoc-list model"
    ~count:300 QCheck.(list_of_size Gen.(1 -- 80) op)
    (fun ops ->
      let ct = Conntrack.create () in
      let model = ref [] and next_port = ref 32768 in
      let alloc () =
        let p = !next_port in
        next_port := if p >= 60999 then 32768 else p + 1;
        p
      in
      let bind k v = model := (k, v) :: List.remove_assoc k !model in
      List.for_all
        (fun (kind, flow, (to_ip, to_port)) ->
          let p = pool_packet flow in
          let ((proto, s, sp, d, dp) as f) = flow_view p in
          let to_ip = pool_ip.(to_ip) and to_port = pool_port.(to_port) in
          let ip = Ipv4.to_int to_ip in
          let nat () =
            if kind = 1 then Conntrack.snat ct p ~to_ip
            else Conntrack.dnat ct p ~to_ip ~to_port
          in
          let ok =
            match (kind, List.assoc_opt f !model) with
            | 0, None -> Conntrack.translate ct p == p
            | 0, Some rw ->
              let out = Conntrack.translate ct p in
              out != p && flow_view out = model_apply rw f
            | _, Some rw -> flow_view (nat ()) = model_apply rw f
            | 1, None ->
              let nat_port = if proto = 2 then sp else alloc () in
              let fwd = (Some (ip, nat_port), None) in
              bind f fwd;
              bind (proto, d, dp, ip, nat_port) (None, Some (s, sp));
              flow_view (nat ()) = model_apply fwd f
            | _, None ->
              let fwd = (None, Some (ip, to_port)) in
              bind f fwd;
              bind (proto, ip, to_port, s, sp) (Some (d, dp), None);
              flow_view (nat ()) = model_apply fwd f
          in
          ok && Conntrack.entry_count ct = List.length !model)
        ops)

let test_conn_table_matches_model =
  let b = QCheck.int_bound in
  let keys =
    List.concat_map
      (fun l ->
        List.concat_map (fun r -> List.map (fun p -> (l, r, p)) [ 0; 1; 2 ])
          [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  QCheck.Test.make
    ~name:"TCP connection table with one lookup key answers like a model"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 80) (pair (b 2) (triple (b 2) (b 2) (b 2))))
    (fun ops ->
      let t = Stack.Conn_table.create 4 in
      let model = ref [] in
      (* Every key of the pool answers as the model does. *)
      let agrees ((lport, rip, rport) as k) =
        let rip = pool_ip.(rip) in
        let found =
          match Stack.Conn_table.find t ~lport ~rip ~rport with
          | v -> Some v
          | exception Not_found -> None
        in
        found = List.assoc_opt k !model
        && Stack.Conn_table.mem t ~lport ~rip ~rport = Option.is_some found
      in
      List.for_all
        (fun (kind, ((lport, rip, rport) as k)) ->
          let rip = pool_ip.(rip) in
          (match kind with
          | 0 ->
            let v = List.length !model in
            Stack.Conn_table.add t ~lport ~rip ~rport v;
            model := (k, v) :: List.remove_assoc k !model
          | 1 ->
            Stack.Conn_table.remove t ~lport ~rip ~rport;
            model := List.remove_assoc k !model
          | _ -> ());
          List.for_all agrees keys
          && Stack.Conn_table.length t = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Devices: bridge, veth, tap *)

let free_hop () = Hop.free (Engine.create ())

let test_bridge_learning_and_flood () =
  let e = Engine.create () in
  let hop = Hop.free e in
  let br = Bridge.create e ~name:"br0" ~hop ~self_mac:(Mac.of_int 0xff) in
  let mk i =
    let d = Dev.create ~name:(Printf.sprintf "p%d" i) ~mac:(Mac.of_int i) () in
    let received = ref [] in
    Dev.set_tx d (fun f -> received := f :: !received);
    (d, received)
  in
  let d1, r1 = mk 1 and d2, r2 = mk 2 and d3, r3 = mk 3 in
  Bridge.attach br d1;
  Bridge.attach br d2;
  Bridge.attach br d3;
  let frame ~src ~dst =
    Frame.make ~src:(Mac.of_int src) ~dst:(Mac.of_int dst)
      (Frame.Ipv4_body (udp_pkt ()))
  in
  (* Unknown destination: flood to all but ingress. *)
  Dev.deliver d1 (frame ~src:1 ~dst:2);
  Engine.run e;
  Alcotest.(check int) "flooded to p2" 1 (List.length !r2);
  Alcotest.(check int) "flooded to p3" 1 (List.length !r3);
  Alcotest.(check int) "not back out ingress" 0 (List.length !r1);
  (* Now mac 1 is learned: reply unicasts. *)
  Dev.deliver d2 (frame ~src:2 ~dst:1);
  Engine.run e;
  Alcotest.(check int) "unicast to learned port" 1 (List.length !r1);
  Alcotest.(check int) "no flood to p3" 1 (List.length !r3);
  Alcotest.(check bool) "fdb has both macs" true
    (List.length (Bridge.fdb br) >= 2);
  Bridge.detach br d1;
  Alcotest.(check int) "ports after detach" 2 (List.length (Bridge.ports br));
  Alcotest.(check bool) "fdb entry dropped with port" true
    (not (List.exists (fun (m, _) -> Mac.equal m (Mac.of_int 1)) (Bridge.fdb br)))

let test_bridge_self_delivery () =
  let e = Engine.create () in
  let br = Bridge.create e ~name:"br0" ~hop:(Hop.free e) ~self_mac:(Mac.of_int 0xbb) in
  let self = Bridge.self_dev br in
  let up = ref 0 in
  Dev.set_rx self (fun _ -> incr up);
  let port = Dev.create ~name:"p" ~mac:(Mac.of_int 5) () in
  Bridge.attach br port;
  Dev.deliver port
    (Frame.make ~src:(Mac.of_int 5) ~dst:(Mac.of_int 0xbb)
       (Frame.Ipv4_body (udp_pkt ())));
  Engine.run e;
  Alcotest.(check int) "frame to self mac goes up the stack" 1 !up

let test_veth_pair () =
  let e = Engine.create () in
  let hop = Hop.make (Nest_sim.Exec.create e ~name:"x") ~fixed_ns:250 in
  let a, b =
    Veth.pair ~a_name:"a" ~a_mac:(Mac.of_int 1) ~b_name:"b" ~b_mac:(Mac.of_int 2)
      ~ab_hop:hop ~ba_hop:hop ()
  in
  let got = ref None in
  Dev.set_rx b (fun f -> got := Some (Engine.now e, Frame.len f));
  Dev.transmit a (Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
                    (Frame.Ipv4_body (udp_pkt ())));
  Engine.run e;
  (match !got with
  | Some (t, _) -> Alcotest.(check int) "crossing paid the hop" 250 t
  | None -> Alcotest.fail "frame lost");
  Alcotest.(check int) "tx counted" 1 a.Dev.stats.Dev.tx_packets;
  Alcotest.(check int) "rx counted" 1 b.Dev.stats.Dev.rx_packets

let test_tap_normal_bidirectional () =
  let e = Engine.create () in
  let tap = Tap.create e ~name:"tap0" ~mode:Tap.Normal ~hop:(Hop.free e)
      ~mac:(Mac.of_int 0x10) () in
  let q = Tap.add_queue tap ~owner:"vm1" in
  let to_guest = ref 0 and to_host = ref 0 in
  Tap.queue_set_backend q (fun _ -> incr to_guest);
  Dev.set_rx (Tap.host_dev tap) (fun _ -> incr to_host);
  let f = Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
      (Frame.Ipv4_body (udp_pkt ())) in
  Tap.queue_write q f;
  Dev.transmit (Tap.host_dev tap) f;
  Engine.run e;
  Alcotest.(check int) "guest->host" 1 !to_host;
  Alcotest.(check int) "host->guest" 1 !to_guest

let test_tap_loopback_reflects_to_all () =
  let e = Engine.create () in
  let tap = Tap.create e ~name:"hlo" ~mode:Tap.Loopback ~hop:(Hop.free e)
      ~mac:(Mac.of_int 0x20) () in
  let q1 = Tap.add_queue tap ~owner:"vm1" in
  let q2 = Tap.add_queue tap ~owner:"vm2" in
  let q3 = Tap.add_queue tap ~owner:"vm3" in
  let hits = Array.make 3 0 in
  List.iteri
    (fun i q -> Tap.queue_set_backend q (fun _ -> hits.(i) <- hits.(i) + 1))
    [ q1; q2; q3 ];
  Tap.queue_write q2
    (Frame.make ~src:(Mac.of_int 9) ~dst:Mac.broadcast
       (Frame.Ipv4_body (udp_pkt ())));
  Engine.run e;
  Alcotest.(check (array int)) "every queue including the writer's"
    [| 1; 1; 1 |] hits;
  Alcotest.(check int) "reflection counter" 3 (Tap.reflected tap);
  Alcotest.check_raises "no host side on loopback taps"
    (Failure "Tap.host_dev: loopback taps have no host side") (fun () ->
      ignore (Tap.host_dev tap))

let test_dev_down_drops () =
  let d = dummy_dev "down0" in
  d.Dev.up <- false;
  Dev.transmit d (Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2)
                    (Frame.Ipv4_body (udp_pkt ())));
  Alcotest.(check int) "dropped" 1 d.Dev.stats.Dev.drops;
  ignore (free_hop ())

let () =
  Alcotest.run "net"
    [ ( "addresses",
        [ qtest test_mac_roundtrip;
          Alcotest.test_case "mac basics" `Quick test_mac_basics;
          Alcotest.test_case "mac alloc" `Quick test_mac_alloc_unique;
          qtest test_ipv4_roundtrip;
          Alcotest.test_case "cidr" `Quick test_cidr ] );
      ( "packets",
        [ Alcotest.test_case "lengths" `Quick test_packet_len;
          Alcotest.test_case "rewrites" `Quick test_packet_rewrites;
          Alcotest.test_case "ttl" `Quick test_ttl;
          Alcotest.test_case "frame minimum" `Quick test_frame_len_minimum;
          Alcotest.test_case "trace sharing" `Quick
            test_trace_shared_across_reframe ] );
      ( "ipam",
        [ qtest test_ipam_unique;
          Alcotest.test_case "exhaustion/free" `Quick test_ipam_exhaustion_and_free;
          Alcotest.test_case "reserved" `Quick test_ipam_reserved ] );
      ( "routing",
        [ Alcotest.test_case "lpm" `Quick test_route_lpm;
          Alcotest.test_case "recency ties" `Quick test_route_recency_ties ] );
      ( "netfilter",
        [ Alcotest.test_case "order+mangle" `Quick test_netfilter_order_and_mangle;
          Alcotest.test_case "drop+remove" `Quick test_netfilter_drop_and_remove;
          qtest test_conntrack_snat_reverse;
          Alcotest.test_case "snat stable" `Quick test_conntrack_snat_stable;
          Alcotest.test_case "dnat" `Quick test_conntrack_dnat;
          qtest test_netfilter_total_rules;
          Alcotest.test_case "udp and tcp flows bind apart" `Quick
            test_conntrack_proto_distinct;
          Alcotest.test_case "icmp echo id survives snat" `Quick
            test_conntrack_icmp_id_survives_snat;
          qtest test_conntrack_matches_model;
          qtest test_conn_table_matches_model ] );
      ( "devices",
        [ Alcotest.test_case "bridge learning" `Quick test_bridge_learning_and_flood;
          Alcotest.test_case "bridge self" `Quick test_bridge_self_delivery;
          Alcotest.test_case "veth" `Quick test_veth_pair;
          Alcotest.test_case "tap normal" `Quick test_tap_normal_bidirectional;
          Alcotest.test_case "tap loopback" `Quick test_tap_loopback_reflects_to_all;
          Alcotest.test_case "down drops" `Quick test_dev_down_drops ] ) ]
