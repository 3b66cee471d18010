open Nest_net

type t = {
  engine : Nest_sim.Engine.t;
  acct : Nest_sim.Cpu_account.t;
  host : Nest_virt.Host.t;
  vmm : Nest_virt.Vmm.t;
  bridge : Bridge.t;
  client_ns : Stack.ns;
  client_subnet : Ipv4.cidr;
  mutable vms : Nest_virt.Vm.t list;
  mutable nodes : Nest_orch.Node.t list;
  prefix : string;
}

let client_entity = "client"

let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

let create ?(seed = 42L) ?(cost_model = Nest_virt.Cost_model.default)
    ?(num_vms = 1) ?sharded ?(prefix = "") ?rng () =
  let engine =
    match sharded with
    | Some (sd, shard) -> Nest_sim.Sharded.engine sd shard
    | None -> Nest_sim.Engine.create ~seed ()
  in
  let acct = Nest_sim.Cpu_account.create () in
  let host =
    Nest_virt.Host.create engine acct ~cpus:12 ~cost_model
      ~name:(prefix ^ "host") ?rng ()
  in
  let bridge =
    Nest_virt.Host.add_bridge host ~name:(prefix ^ "virbr0")
      ~ip:(ip "10.0.0.1") ~subnet:(cidr "10.0.0.0/24")
  in
  let vmm = Nest_virt.Vmm.create host in
  let client_subnet = cidr "192.168.100.0/24" in
  let client_ns =
    Nest_virt.Host.new_process_ns host ~name:(prefix ^ "client")
      ~entity:client_entity
  in
  Nest_virt.Host.connect_ns_to_host host client_ns
    ~host_ip:(ip "192.168.100.1") ~ns_ip:(ip "192.168.100.2")
    ~subnet:client_subnet;
  Nest_virt.Host.masquerade host ~src_subnet:client_subnet
    ~nat_ip:(ip "10.0.0.1");
  let t =
    { engine; acct; host; vmm; bridge; client_ns; client_subnet; vms = [];
      nodes = []; prefix }
  in
  for i = 0 to num_vms - 1 do
    let vm =
      Nest_virt.Vmm.create_vm vmm
        ~name:(Printf.sprintf "%svm%d" prefix (i + 1))
        ~vcpus:5 ~mem_mb:4096 ~bridge:(prefix ^ "virbr0")
        ~ip:(ip (Printf.sprintf "10.0.0.%d" (i + 2)))
    in
    t.vms <- t.vms @ [ vm ];
    t.nodes <- t.nodes @ [ Nest_orch.Node.create vm ]
  done;
  t

let vm t i =
  match List.nth_opt t.vms i with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Testbed.vm: no VM %d" i)

let node t i =
  match List.nth_opt t.nodes i with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Testbed.node: no node %d" i)

let run_until t horizon = Nest_sim.Engine.run ~until:horizon t.engine

let client_app_exec t ~name =
  Nest_virt.Host.new_app_exec t.host ~name ~entity:client_entity
