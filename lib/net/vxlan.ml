type Payload.app_msg += Vxlan_encap of Frame.t

let vxlan_header_bytes = 8
(* The IANA VXLAN port. *)
let udp_port = 4789
let overlay_mtu = 1450

type t = {
  encap_name : string;  (* trace names, built once: see [create] *)
  decap_name : string;
  vni : int;
  underlay : Stack.ns;
  sock : Stack.Udp.sock;
  overlay_dev : Dev.t;
  encap_hop : Hop.t;
  decap_hop : Hop.t;
  fdb : Ipv4.t Mac.Tbl.t;
  mutable remotes : Ipv4.t list;
  mutable encapsulated : int;
  encap_ctr : Nest_sim.Metrics.counter;
  decap_ctr : Nest_sim.Metrics.counter;
}

let decap t (payload : Payload.t) =
  match payload.Payload.msg with
  | Some (Vxlan_encap inner) ->
    Nest_sim.Metrics.bump t.decap_ctr;
    Nest_sim.Engine.trace_instant (Stack.engine t.underlay) ~cat:"hop"
      ~name:t.decap_name ();
    Hop.service_prov ?prov:(Frame.prov inner) t.decap_hop ~extra_ns:0
      ~bytes:(Frame.len inner) (fun () -> Dev.deliver t.overlay_dev inner)
  | Some _ | None -> ()

(* FDB-pinned unicast, or flood to every peer VTEP. *)
let targets t (inner : Frame.t) =
  if Frame.is_broadcast inner then t.remotes
  else
    match Mac.Tbl.find t.fdb inner.Frame.dst with
    | remote -> [ remote ]
    | exception Not_found -> t.remotes

let encap t (inner : Frame.t) =
  let targets = targets t inner in
  if not (List.is_empty targets) then begin
    Nest_sim.Metrics.bump t.encap_ctr;
    Nest_sim.Engine.trace_instant (Stack.engine t.underlay) ~cat:"hop"
      ~name:t.encap_name ();
    let payload =
      Payload.make ~size:(Frame.len inner + vxlan_header_bytes)
        (Vxlan_encap inner)
    in
    let single = match targets with [ _ ] -> true | _ -> false in
    Hop.service_prov ?prov:(Frame.prov inner) t.encap_hop ~extra_ns:0
      ~bytes:(Frame.len inner) (fun () ->
        List.iter
          (fun remote ->
            t.encapsulated <- t.encapsulated + 1;
            (* Thread the inner frame's provenance onto the outer
               datagram so underlay hops attribute to the same record;
               multicast replication branches it per remote. *)
            let prov =
              match Frame.prov inner with
              | Some p when not single -> Some (Nest_sim.Provenance.branch p)
              | p -> p
            in
            Stack.Udp.sendto ?prov t.sock ~dst:remote ~dst_port:udp_port
              payload)
          targets)
  end

let create underlay ~name ~vni ~encap_hop ~decap_hop =
  (* Built once: a per-packet concatenation would allocate, and miss the
     trace pool's physical-equality memo. *)
  let encap_name = name ^ ":encap" and decap_name = name ^ ":decap" in
  Hop.set_name encap_hop encap_name;
  Hop.set_name decap_hop decap_name;
  let overlay_dev =
    Dev.create ~mtu:overlay_mtu ~name:(name ^ ".vtep")
      ~mac:(Mac.of_int (0x0242000000 lor (vni land 0xffffff)))
      ()
  in
  let metrics = Nest_sim.Engine.metrics (Stack.engine underlay) in
  let rec t =
    lazy
      { encap_name; decap_name; vni; underlay;
        sock =
          Stack.Udp.bind underlay ~port:udp_port ~kernel:true
            (fun _ ~src:_ ~src_port:_ payload -> decap (Lazy.force t) payload);
        overlay_dev; encap_hop; decap_hop; fdb = Mac.Tbl.create 16;
        remotes = []; encapsulated = 0;
        encap_ctr = Nest_sim.Metrics.counter metrics ("hop." ^ name ^ ".encap");
        decap_ctr = Nest_sim.Metrics.counter metrics ("hop." ^ name ^ ".decap") }
  in
  let t = Lazy.force t in
  Dev.set_tx overlay_dev (fun frame -> encap t frame);
  t

let dev t = t.overlay_dev

let add_remote t ip =
  if not (List.exists (Ipv4.equal ip) t.remotes) then
    t.remotes <- t.remotes @ [ ip ]

let add_fdb t mac ip = Mac.Tbl.replace t.fdb mac ip

let remove_remote t ip =
  t.remotes <- List.filter (fun r -> not (Ipv4.equal r ip)) t.remotes;
  Mac.Tbl.filter_map_inplace
    (fun _ dst -> if Ipv4.equal dst ip then None else Some dst)
    t.fdb

let encapsulated t = t.encapsulated
