open Nest_net
module Exec = Nest_sim.Exec
module Cpu_account = Nest_sim.Cpu_account

type t = {
  engine : Nest_sim.Engine.t;
  acct : Cpu_account.t;
  host_entity : string;
  host_cpus : int;
  cm : Cost_model.t;
  mac_alloc : Mac.Alloc.alloc;
  cpuset : Nest_sim.Cpu_set.t;
  sys_exec : Exec.t;
  soft : Exec.t;
  host_ns : Stack.ns;
  host_rng : Nest_sim.Prng.t;
  rng_explicit : bool;  (* created with ~rng: key child streams off it *)
  mutable bridge_list : (string * Bridge.t) list;
}

let create engine acct ?(cpus = 12) ?(cost_model = Cost_model.default)
    ?(entity = "host") ?rng ~name () =
  let cpuset = Nest_sim.Cpu_set.create ~cores:cpus ~name in
  let sys_exec =
    Exec.create ~account:(acct, entity, Cpu_account.Sys) ~width:cpus
      ~cpus:cpuset engine ~name:(name ^ ":sys")
  in
  let soft =
    Exec.create ~account:(acct, entity, Cpu_account.Soft) ~cpus:cpuset engine
      ~name:(name ^ ":softirq")
  in
  let costs = Kernel_costs.stack_costs cost_model ~sys_exec ~soft_exec:soft in
  let host_ns = Stack.create engine ~name ~costs ?rng () in
  Stack.set_ip_forward host_ns true;
  { engine; acct; host_entity = entity; host_cpus = cpus; cm = cost_model;
    mac_alloc = Mac.Alloc.create (); cpuset; sys_exec; soft; host_ns;
    host_rng =
      (match rng with
      | Some r -> Nest_sim.Prng.split r
      | None -> Nest_sim.Prng.split (Nest_sim.Engine.rng engine));
    rng_explicit = (rng <> None);
    bridge_list = [] }

let engine t = t.engine
let account t = t.acct
let entity t = t.host_entity
let cpus t = t.host_cpus
let cost_model t = t.cm
let ns t = t.host_ns
let soft_exec t = t.soft
let fresh_mac t = Mac.Alloc.fresh t.mac_alloc
let rng t = t.host_rng

(* Stream child namespaces should split their jitter streams from: the
   host stream when the host was seeded explicitly (so draws are keyed
   on the node, not on whichever engine the node landed on), the engine
   root otherwise (the historical behaviour — existing single-node
   scenarios stay byte-identical). *)
let ns_rng_src t = if t.rng_explicit then Some t.host_rng else None

let bridge_hop t =
  Hop.make t.soft ~fixed_ns:t.cm.Cost_model.bridge_fixed_ns
    ~per_byte_ns:t.cm.Cost_model.bridge_per_byte_ns

let veth_hop t =
  Hop.make t.soft ~fixed_ns:t.cm.Cost_model.veth_fixed_ns
    ~per_byte_ns:t.cm.Cost_model.veth_per_byte_ns

let tap_hop t = Hop.make t.soft ~fixed_ns:t.cm.Cost_model.tap_fixed_ns

let add_bridge t ~name ~ip ~subnet =
  let br =
    Bridge.create t.engine ~name ~hop:(bridge_hop t) ~self_mac:(fresh_mac t)
  in
  let self = Bridge.self_dev br in
  Stack.attach t.host_ns self;
  Stack.add_addr t.host_ns self ip subnet;
  t.bridge_list <- t.bridge_list @ [ (name, br) ];
  br

let find_bridge t name = List.assoc_opt name t.bridge_list
let bridges t = t.bridge_list

let masquerade t ~src_subnet ~nat_ip =
  Nat.masquerade (Stack.nf t.host_ns) (Stack.ct t.host_ns)
    ~name:(Printf.sprintf "masq-%s" (Ipv4.cidr_to_string src_subnet))
    ~src_subnet ~nat_ip ()

let cpu_set t = t.cpuset

let new_vhost_exec t ~name =
  Exec.create ~account:(t.acct, t.host_entity, Cpu_account.Sys)
    ~cpus:t.cpuset t.engine ~name

let new_process_ns t ~name ~entity =
  let sys_exec =
    Exec.create ~account:(t.acct, entity, Cpu_account.Sys) ~cpus:t.cpuset
      t.engine ~name:(name ^ ":sys")
  in
  let soft_exec =
    Exec.create ~account:(t.acct, entity, Cpu_account.Soft) ~cpus:t.cpuset
      t.engine ~name:(name ^ ":soft")
  in
  Stack.create t.engine ~name
    ~costs:(Kernel_costs.stack_costs t.cm ~sys_exec ~soft_exec)
    ?rng:(ns_rng_src t) ()

let new_app_exec t ~name ~entity =
  Exec.create ~account:(t.acct, entity, Cpu_account.Usr) ~cpus:t.cpuset
    t.engine ~name

let connect_ns_to_host t peer_ns ~host_ip ~ns_ip ~subnet =
  let peer_soft = (Stack.costs peer_ns).Stack.rx.Hop.exec in
  let to_ns_hop =
    Hop.make peer_soft ~fixed_ns:t.cm.Cost_model.veth_fixed_ns
      ~per_byte_ns:t.cm.Cost_model.veth_per_byte_ns
  in
  let ns_dev, host_dev =
    Veth.pair
      ~a_name:(Stack.name peer_ns ^ ":eth0")
      ~a_mac:(fresh_mac t)
      ~b_name:("veth-" ^ Stack.name peer_ns)
      ~b_mac:(fresh_mac t) ~ab_hop:(veth_hop t) ~ba_hop:to_ns_hop ()
  in
  Stack.attach peer_ns ns_dev;
  Stack.add_addr peer_ns ns_dev ns_ip subnet;
  Route.add_default (Stack.routes peer_ns) ~gateway:host_ip ~dev:ns_dev ();
  Stack.attach t.host_ns host_dev;
  Stack.add_addr t.host_ns host_dev host_ip subnet
