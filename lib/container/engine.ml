open Nest_net
module Sim_engine = Nest_sim.Engine
module Time = Nest_sim.Time

type container = {
  c_netns : Stack.ns;
  c_ordered_at : Time.ns;
  mutable c_ready_at : Time.ns option;
  mutable c_state : [ `Creating | `Running | `Stopped ];
}

type t = {
  d_vm : Nest_virt.Vm.t;
  d_name : string;
  d_rng : Nest_sim.Prng.t;
  mutable d_bridge : (Bridge.t * Ipam.t) option;
  mutable d_containers : container list;
  mutable nat_assignments : (Stack.ns * Ipv4.t) list;
  mutable image_cache : string list;
}

let docker0_subnet = Ipv4.cidr_of_string "172.17.0.0/16"
let docker0_gw = Ipv4.of_string "172.17.0.1"

let create vm ~name =
  { d_vm = vm; d_name = name;
    d_rng = Nest_sim.Prng.split (Nest_virt.Host.rng (Nest_virt.Vm.host vm));
    d_bridge = None; d_containers = []; nat_assignments = [];
    image_cache = [] }

let primary_vm_ip t =
  let vns = Nest_virt.Vm.ns t.d_vm in
  let non_lo =
    List.find_opt
      (fun (_, ip, _) -> not (Ipv4.in_subnet (Ipv4.cidr_of_string "127.0.0.0/8") ip))
      (Stack.addrs vns)
  in
  match non_lo with
  | Some (_, ip, _) -> ip
  | None -> failwith "Engine.primary_vm_ip: VM has no address"

let ensure_bridge t =
  match t.d_bridge with
  | Some (br, _) -> br
  | None ->
    let vmachine = t.d_vm in
    let host = Nest_virt.Vm.host vmachine in
    let vns = Nest_virt.Vm.ns vmachine in
    let _, bridge_hop = Nest_virt.Vm.guest_hops vmachine ~veth:() in
    let br =
      Bridge.create (Nest_virt.Host.engine host)
        ~name:(Nest_virt.Vm.name vmachine ^ ":docker0")
        ~hop:bridge_hop
        ~self_mac:(Nest_virt.Host.fresh_mac host)
    in
    let self = Bridge.self_dev br in
    Stack.attach vns self;
    Stack.add_addr vns self docker0_gw docker0_subnet;
    (* Containers are masqueraded behind the VM's own address. *)
    Nat.masquerade (Stack.nf vns) (Stack.ct vns)
      ~name:"docker-masq" ~src_subnet:docker0_subnet
      ~nat_ip:(primary_vm_ip t) ();
    (* Docker also installs its DOCKER / DOCKER-ISOLATION chain plumbing;
       the rules below match nothing but are traversed (and paid for) by
       every packet through the armed hooks, like the real chains. *)
    let filler hook name =
      Netfilter.append (Stack.nf vns) hook
        { Netfilter.rule_name = name;
          matches = (fun ~in_dev:_ ~out_dev:_ _ -> false);
          action = (fun _ -> Netfilter.Accept) }
    in
    filler Netfilter.Prerouting "docker-prerouting-jump";
    filler Netfilter.Forward "docker-isolation-stage-1";
    filler Netfilter.Forward "docker-isolation-stage-2";
    filler Netfilter.Forward "docker-user";
    filler Netfilter.Forward "docker-forward";
    filler Netfilter.Postrouting "docker-postrouting-jump";
    let ipam = Ipam.create ~reserved:[ docker0_gw ] docker0_subnet in
    t.d_bridge <- Some (br, ipam);
    br

let iptables_rule_count t =
  let nf = Stack.nf (Nest_virt.Vm.ns t.d_vm) in
  Netfilter.rule_count nf Netfilter.Prerouting
  + Netfilter.rule_count nf Netfilter.Postrouting

let nat_net_setup t ~netns ~publish k =
  let br = ensure_bridge t in
  let ipam = match t.d_bridge with Some (_, i) -> i | None -> assert false in
  let vmachine = t.d_vm in
  let host = Nest_virt.Vm.host vmachine in
  let vns = Nest_virt.Vm.ns vmachine in
  let veth_hop, _ = Nest_virt.Vm.guest_hops vmachine ~veth:() in
  let cip = Ipam.alloc ipam in
  t.nat_assignments <- (netns, cip) :: t.nat_assignments;
  let rules_before = iptables_rule_count t in
  let c_dev, br_dev =
    Veth.pair
      ~a_name:(Stack.name netns ^ ":eth0")
      ~a_mac:(Nest_virt.Host.fresh_mac host)
      ~b_name:("veth-" ^ Stack.name netns)
      ~b_mac:(Nest_virt.Host.fresh_mac host)
      ~ab_hop:veth_hop ~ba_hop:veth_hop ()
  in
  Stack.attach netns c_dev;
  Stack.add_addr netns c_dev cip docker0_subnet;
  Route.add_default (Stack.routes netns) ~gateway:docker0_gw ~dev:c_dev ();
  Bridge.attach br br_dev;
  List.iter
    (fun (vm_port, c_port) ->
      Nat.publish (Stack.nf vns) (Stack.ct vns)
        ~name:(Printf.sprintf "publish-%d" vm_port)
        ~dst_ip:(primary_vm_ip t) ~dst_port:vm_port ~to_ip:cip ~to_port:c_port)
    publish;
  let phases =
    Boot_model.sample t.d_rng ~network:(`Bridge_nat rules_before)
  in
  Sim_engine.schedule
    (Nest_virt.Host.engine host)
    ~delay:phases.Boot_model.network_ns k

let instant_net_setup k = k ()

let run t ~image ~netns ~net_setup ~on_ready () =
  let host = Nest_virt.Vm.host t.d_vm in
  let engine = Nest_virt.Host.engine host in
  let cached = List.mem image.Image.img_name t.image_cache in
  if not cached then t.image_cache <- image.Image.img_name :: t.image_cache;
  let c =
    { c_netns = netns; c_ordered_at = Sim_engine.now engine; c_ready_at = None;
      c_state = `Creating }
  in
  t.d_containers <- t.d_containers @ [ c ];
  let phases = Boot_model.sample t.d_rng ~network:`Brfusion in
  let pull = Image.pull_delay_ns image ~cached ~rng:t.d_rng in
  Sim_engine.schedule engine ~delay:(pull + phases.Boot_model.runtime_ns)
    (fun () ->
      net_setup (fun () ->
          Sim_engine.schedule engine ~delay:phases.Boot_model.app_ns
            (fun () ->
              c.c_state <- `Running;
              c.c_ready_at <- Some (Sim_engine.now engine);
              on_ready c)));
  c

let stop t c =
  c.c_state <- `Stopped;
  t.d_containers <- List.filter (fun x -> x != c) t.d_containers;
  (* Release the namespace's NAT address once no running container of
     this engine shares it (pod members share one namespace). *)
  let ns_still_used =
    List.exists (fun x -> x.c_netns == c.c_netns) t.d_containers
  in
  if not ns_still_used then begin
    match
      ( List.find_opt (fun (ns, _) -> ns == c.c_netns) t.nat_assignments,
        t.d_bridge )
    with
    | Some (_, ip), Some (_, ipam) ->
      t.nat_assignments <-
        List.filter (fun (ns, _) -> ns != c.c_netns) t.nat_assignments;
      Ipam.free ipam ip
    | _ -> ()
  end

let containers t = t.d_containers
let netns c = c.c_netns
let state c = c.c_state

let boot_duration_ns c =
  match c.c_ready_at with
  | None -> None
  | Some ready -> Some (ready - c.c_ordered_at)
