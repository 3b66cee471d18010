open Nest_net

type member = { m_node : Node.t; m_vtep : Vxlan.t; m_bridge : Bridge.t }

type t = {
  ov_name : string;
  ov_vni : int;
  subnet : Ipv4.cidr;
  ipam : Ipam.t;
  mutable member_list : member list;
  mutable pod_addrs : (Stack.ns * Ipv4.t) list;
}

let create ~name ~vni ~subnet =
  { ov_name = name; ov_vni = vni; subnet; ipam = Ipam.create subnet;
    member_list = []; pod_addrs = [] }

let vm_primary_ip vm =
  let lo = Ipv4.cidr_of_string "127.0.0.0/8" in
  match
    List.find_opt
      (fun (_, ip, _) -> not (Ipv4.in_subnet lo ip))
      (Stack.addrs (Nest_virt.Vm.ns vm))
  with
  | Some (_, ip, _) -> ip
  | None -> failwith "Cni_overlay: VM has no underlay address"

let ensure_member t node =
  match List.find_opt (fun m -> m.m_node == node) t.member_list with
  | Some m -> m
  | None ->
    let vm = Node.vm node in
    let host = Nest_virt.Vm.host vm in
    let cm = Nest_virt.Host.cost_model host in
    let soft = Nest_virt.Vm.soft_exec vm in
    let vns = Nest_virt.Vm.ns vm in
    let _, bridge_hop = Nest_virt.Vm.guest_hops vm ~veth:() in
    let br =
      Bridge.create (Nest_virt.Host.engine host)
        ~name:(Nest_virt.Vm.name vm ^ ":" ^ t.ov_name ^ "-br")
        ~hop:bridge_hop ~self_mac:(Nest_virt.Host.fresh_mac host)
    in
    let vtep =
      Vxlan.create vns
        ~name:(Nest_virt.Vm.name vm ^ ":" ^ t.ov_name)
        ~vni:t.ov_vni
        ~encap_hop:
          (Hop.make soft ~fixed_ns:cm.Nest_virt.Cost_model.vxlan_encap_fixed_ns
             ~per_byte_ns:cm.Nest_virt.Cost_model.vxlan_encap_per_byte_ns)
        ~decap_hop:
          (Hop.make soft ~fixed_ns:cm.Nest_virt.Cost_model.vxlan_decap_fixed_ns
             ~per_byte_ns:cm.Nest_virt.Cost_model.vxlan_decap_per_byte_ns)
    in
    Bridge.attach br (Vxlan.dev vtep);
    let m = { m_node = node; m_vtep = vtep; m_bridge = br } in
    (* Drop members whose VM has died before peering: a replacement VM
       reuses the dead one's underlay address, and peering the joining
       VTEP against the stale entry would install it as its own remote —
       every reflected self-copy then re-enters the overlay bridge on the
       VTEP port and poisons its MAC learning. *)
    let live, dead =
      List.partition
        (fun m' -> Nest_virt.Vm.alive (Node.vm m'.m_node))
        t.member_list
    in
    (* Unpeer the dead members from the survivors too: their flood-list
       entries would otherwise keep pointing at the dead VTEP until the
       replacement re-announced the address. *)
    List.iter
      (fun d ->
        let dead_ip = vm_primary_ip (Node.vm d.m_node) in
        List.iter (fun m' -> Vxlan.remove_remote m'.m_vtep dead_ip) live)
      dead;
    t.member_list <- live;
    (* Full-mesh peering with surviving members. *)
    let my_ip = vm_primary_ip vm in
    List.iter
      (fun m' ->
        let peer_ip = vm_primary_ip (Node.vm m'.m_node) in
        if not (Ipv4.equal peer_ip my_ip) then begin
          Vxlan.add_remote m.m_vtep peer_ip;
          Vxlan.add_remote m'.m_vtep my_ip
        end)
      t.member_list;
    t.member_list <- t.member_list @ [ m ];
    m

let plugin t =
  let add ~pod_name ~node ~publish:_ ~k =
    let m = ensure_member t node in
    let vm = Node.vm node in
    let host = Nest_virt.Vm.host vm in
    let netns = Nest_virt.Vm.new_netns vm ~name:pod_name () in
    let veth_hop, _ = Nest_virt.Vm.guest_hops vm ~veth:() in
    let c_dev, br_dev =
      Veth.pair
        ~a_name:(pod_name ^ ":eth0")
        ~a_mac:(Nest_virt.Host.fresh_mac host)
        ~b_name:("veth-" ^ pod_name)
        ~b_mac:(Nest_virt.Host.fresh_mac host)
        ~ab_hop:veth_hop ~ba_hop:veth_hop ()
    in
    (* Overlay MTU leaves room for the VXLAN encapsulation. *)
    c_dev.Dev.mtu <- 1450;
    br_dev.Dev.mtu <- 1450;
    let ip = Ipam.alloc t.ipam in
    Stack.attach netns c_dev;
    Stack.add_addr netns c_dev ip t.subnet;
    Bridge.attach m.m_bridge br_dev;
    t.pod_addrs <- (netns, ip) :: t.pod_addrs;
    k netns
  in
  { Cni.add }

let members t = List.map (fun m -> m.m_node) t.member_list

let pod_ip t ns =
  List.find_map
    (fun (n, ip) -> if n == ns then Some ip else None)
    t.pod_addrs
