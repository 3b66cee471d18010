open Nest_net
module Exec = Nest_sim.Exec
module Cpu_account = Nest_sim.Cpu_account

type t = {
  vm_name : string;
  vm_host : Host.t;
  vm_vcpus : int;
  vm_mem_mb : int;
  vm_cpuset : Nest_sim.Cpu_set.t;
  sys : Exec.t;
  soft : Exec.t;
  vm_ns : Stack.ns;
  mutable entity_list : string list;
  mutable nic_list : Dev.t list;
  mutable nic_waiters : (Mac.t * (Dev.t -> unit) * (unit -> unit)) list;
  mutable netns_list : Stack.ns list;
  mutable vm_alive : bool;
}

let guest_cost_model host =
  let cm = Host.cost_model host in
  Cost_model.scaled cm cm.Cost_model.guest_kernel_factor

let create host ~name ~vcpus ~mem_mb =
  let engine = Host.engine host in
  let acct = Host.account host in
  let guest_charge = [ (acct, Host.entity host, Cpu_account.Guest) ] in
  let vm_cpuset = Nest_sim.Cpu_set.create ~cores:vcpus ~name in
  let sys =
    Exec.create ~account:(acct, name, Cpu_account.Sys) ~also:guest_charge
      ~width:vcpus ~cpus:vm_cpuset engine ~name:(name ^ ":sys")
  in
  let soft =
    Exec.create ~account:(acct, name, Cpu_account.Soft) ~also:guest_charge
      ~cpus:vm_cpuset engine ~name:(name ^ ":softirq")
  in
  let costs =
    Kernel_costs.stack_costs (guest_cost_model host) ~sys_exec:sys
      ~soft_exec:soft
  in
  let vm_ns = Stack.create engine ~name ~costs ?rng:(Host.ns_rng_src host) () in
  Stack.set_ip_forward vm_ns true;
  { vm_name = name; vm_host = host; vm_vcpus = vcpus; vm_mem_mb = mem_mb;
    vm_cpuset; sys; soft; vm_ns; entity_list = [ name ]; nic_list = [];
    nic_waiters = []; netns_list = []; vm_alive = true }

let name t = t.vm_name
let host t = t.vm_host
let vcpus t = t.vm_vcpus
let mem_mb t = t.vm_mem_mb
let ns t = t.vm_ns
let cpu_set t = t.vm_cpuset
let sys_exec t = t.sys
let soft_exec t = t.soft

let new_netns t ~name ?(with_loopback = true) () =
  let costs =
    Kernel_costs.stack_costs (guest_cost_model t.vm_host) ~sys_exec:t.sys
      ~soft_exec:t.soft
  in
  let ns =
    Stack.create (Host.engine t.vm_host) ~name ~costs ~with_loopback
      ?rng:(Host.ns_rng_src t.vm_host) ()
  in
  t.netns_list <- t.netns_list @ [ ns ];
  ns

let add_entity t entity =
  if not (List.mem entity t.entity_list) then
    t.entity_list <- t.entity_list @ [ entity ]

let new_app_exec t ~name ~entity =
  let acct = Host.account t.vm_host in
  add_entity t entity;
  Exec.create
    ~account:(acct, entity, Cpu_account.Usr)
    ~also:[ (acct, Host.entity t.vm_host, Cpu_account.Guest) ]
    ~cpus:t.vm_cpuset (Host.engine t.vm_host) ~name

let guest_hops t ~veth:() =
  let cm = guest_cost_model t.vm_host in
  ( Hop.make t.soft ~fixed_ns:cm.Cost_model.veth_fixed_ns
      ~per_byte_ns:cm.Cost_model.veth_per_byte_ns,
    Hop.make t.soft ~fixed_ns:cm.Cost_model.bridge_fixed_ns
      ~per_byte_ns:cm.Cost_model.bridge_per_byte_ns )

let entities t = t.entity_list

(* Hostlo endpoints all carry the reflector tap's MAC (§4.2: one
   interface multiplexed between VMs), so a MAC can match several
   devices.  A device already claimed by a namespace ([rx_fn] set by
   [Stack.attach]) must never match again — handing it out would rebind
   its receive path and silently steal it from the first owner.  The
   agent matches the first *unclaimed* device, like udev matching the
   newly-probed instance rather than grepping the MAC table. *)
let unclaimed d = Option.is_none d.Dev.rx_fn

let nic_arrived t dev =
  t.nic_list <- t.nic_list @ [ dev ];
  (* One arrival satisfies one waiter: with shared-MAC endpoints, two
     concurrent configures must end up on two distinct devices. *)
  let rec pop acc = function
    | [] -> (None, List.rev acc)
    | ((mac, k, _) as w) :: rest ->
      if Mac.equal mac dev.Dev.mac then (Some k, List.rev_append acc rest)
      else pop (w :: acc) rest
  in
  let ready, waiting = pop [] t.nic_waiters in
  t.nic_waiters <- waiting;
  match ready with
  | Some k -> k dev
  | None -> ()

let wait_nic t ~mac ?(on_dead = fun () -> ()) ~k () =
  if not t.vm_alive then on_dead ()
  else
    match
      List.find_opt
        (fun d -> Mac.equal d.Dev.mac mac && unclaimed d)
        t.nic_list
    with
    | Some dev -> k dev
    | None -> t.nic_waiters <- t.nic_waiters @ [ (mac, k, on_dead) ]

let nics t = t.nic_list
let netns_list t = t.netns_list
let alive t = t.vm_alive

(* Abrupt VM death: every guest-visible device — root-namespace NICs and
   the veths inside pod namespaces — goes dead at once.  In-flight events
   already scheduled on guest contexts still fire (the host reclaims the
   vCPUs only after the instant of death), but every frame they try to
   move is dropped at a down device.  Waiters for NICs that will never
   arrive are discarded. *)
let kill t =
  t.vm_alive <- false;
  let waiters = t.nic_waiters in
  t.nic_waiters <- [];
  (* Tell each abandoned waiter its NIC will never arrive, so the owner
     can release whatever it reserved for the device (an IPAM lease, a
     pool slot) instead of leaking it with the dead VM. *)
  List.iter (fun (_, _, on_dead) -> on_dead ()) waiters;
  List.iter (fun d -> Dev.set_up d false) t.nic_list;
  let down_ns ns = List.iter (fun d -> Dev.set_up d false) (Stack.devices ns) in
  down_ns t.vm_ns;
  List.iter down_ns t.netns_list
