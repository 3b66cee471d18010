open Nest_net

(* Two datagrams are sent; the first warms the path (ARP resolution and
   unknown-destination floods would otherwise leave queue-time artifacts
   and branched records), and the second — measured on a warm path —
   carries the provenance record handed to [k].  Its entries decompose
   the datagram's one-way latency into per-hop queue/service time.  Both
   datagrams carry 64 B, netperf's UDP_RR size. *)
let probe_bytes = 64

let udp_timed_path ~src ~dst ~dst_addr ~port ~k () =
  Stack.set_provenance_all src true;
  let server = Stack.Udp.bind dst ~port (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let probe = Stack.Udp.bind src ~port:0 (fun _ ~src:_ ~src_port:_ _ -> ()) in
  let send () =
    Stack.Udp.sendto probe ~dst:dst_addr ~dst_port:port
      (Payload.raw probe_bytes)
  in
  let arrivals = ref 0 in
  Stack.set_observer dst
    (Some
       (fun pkt ->
         match Packet.ports pkt with
         | Some (_, p) when p = port ->
           incr arrivals;
           if !arrivals = 1 then send ()
           else begin
             Stack.set_observer dst None;
             Stack.set_provenance_all src false;
             Stack.Udp.close server;
             Stack.Udp.close probe;
             match Packet.prov pkt with
             | Some prov -> k (Nest_sim.Provenance.entries prov)
             | None -> k []
           end
         | Some _ | None -> ()));
  send ()

let pp_hops fmt hops =
  Format.fprintf fmt "[%s]" (String.concat " -> " hops)
