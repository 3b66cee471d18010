type agent_counters = { mutable configured : int }

(* An all-float record is stored flat, so reserve and release write
   it without boxing, and a reader that knows the type reads it so. *)
type resources = {
  cpu_cap : float;
  mem_cap : float;
  mutable cpu_req : float;
  mutable mem_req : float;
  mutable fraction : float;
}

let[@inline] fraction_of r =
  ((r.cpu_req /. r.cpu_cap) +. (r.mem_req /. r.mem_cap)) /. 2.0

type t = {
  node_vm : Nest_virt.Vm.t;
  node_docker : Nest_container.Engine.t;
  res : resources;
  mutable node_ready : bool;
  agent : agent_counters;
}

let create vm =
  let res =
    { cpu_cap = float_of_int (Nest_virt.Vm.vcpus vm);
      mem_cap = float_of_int (Nest_virt.Vm.mem_mb vm) /. 1024.0;
      cpu_req = 0.0; mem_req = 0.0; fraction = 0.0 }
  in
  res.fraction <- fraction_of res;
  { node_vm = vm;
    node_docker =
      Nest_container.Engine.create vm ~name:(Nest_virt.Vm.name vm ^ ":docker");
    res;
    node_ready = true;
    agent = { configured = 0 } }

let vm t = t.node_vm
let docker t = t.node_docker
let name t = Nest_virt.Vm.name t.node_vm
let resources t = t.res
let cpu_capacity t = t.res.cpu_cap
let mem_capacity t = t.res.mem_cap
let cpu_requested t = t.res.cpu_req
let mem_requested t = t.res.mem_req

let agent_counters t = t.agent
let ready t = t.node_ready
let set_ready t b = t.node_ready <- b

let epsilon = 1e-9

let fits t ~cpu ~mem =
  let r = t.res in
  t.node_ready
  && r.cpu_req +. cpu <= r.cpu_cap +. epsilon
  && r.mem_req +. mem <= r.mem_cap +. epsilon

let reserve t ~cpu ~mem =
  if not (fits t ~cpu ~mem) then
    invalid_arg (Printf.sprintf "Node.reserve: overcommit on %s" (name t));
  let r = t.res in
  r.cpu_req <- r.cpu_req +. cpu;
  r.mem_req <- r.mem_req +. mem;
  r.fraction <- fraction_of r

(* [Float.max 0.0 (req -. x)], written out: the call would box both
   operands and its result. *)
let release t ~cpu ~mem =
  let r = t.res in
  let c = r.cpu_req -. cpu and m = r.mem_req -. mem in
  r.cpu_req <- (if c > 0.0 || Float.is_nan c then c else 0.0);
  r.mem_req <- (if m > 0.0 || Float.is_nan m then m else 0.0);
  r.fraction <- fraction_of r

let requested_fraction t = t.res.fraction
