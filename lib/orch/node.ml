type agent_counters = { mutable configured : int; mutable retries : int }

type t = {
  node_vm : Nest_virt.Vm.t;
  node_docker : Nest_container.Engine.t;
  cpu_cap : float;
  mem_cap : float;
  mutable cpu_req : float;
  mutable mem_req : float;
  mutable node_ready : bool;
  agent : agent_counters;
}

let create vm =
  { node_vm = vm;
    node_docker =
      Nest_container.Engine.create vm ~name:(Nest_virt.Vm.name vm ^ ":docker");
    cpu_cap = float_of_int (Nest_virt.Vm.vcpus vm);
    mem_cap = float_of_int (Nest_virt.Vm.mem_mb vm) /. 1024.0;
    cpu_req = 0.0; mem_req = 0.0; node_ready = true;
    agent = { configured = 0; retries = 0 } }

let vm t = t.node_vm
let docker t = t.node_docker
let name t = Nest_virt.Vm.name t.node_vm
let cpu_capacity t = t.cpu_cap
let mem_capacity t = t.mem_cap
let cpu_requested t = t.cpu_req
let mem_requested t = t.mem_req

let agent_counters t = t.agent
let ready t = t.node_ready
let set_ready t b = t.node_ready <- b

let epsilon = 1e-9

let fits t ~cpu ~mem =
  t.node_ready
  && t.cpu_req +. cpu <= t.cpu_cap +. epsilon
  && t.mem_req +. mem <= t.mem_cap +. epsilon

let reserve t ~cpu ~mem =
  if not (fits t ~cpu ~mem) then
    invalid_arg (Printf.sprintf "Node.reserve: overcommit on %s" (name t));
  t.cpu_req <- t.cpu_req +. cpu;
  t.mem_req <- t.mem_req +. mem

let release t ~cpu ~mem =
  t.cpu_req <- Float.max 0.0 (t.cpu_req -. cpu);
  t.mem_req <- Float.max 0.0 (t.mem_req -. mem)

let requested_fraction t =
  ((t.cpu_req /. t.cpu_cap) +. (t.mem_req /. t.mem_cap)) /. 2.0
