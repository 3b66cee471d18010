(** The paper's experimental environment (§5.1): one Dell server with 12
    CPUs; VMs with 5 vCPUs and 4 GB; a libvirt-style host bridge with NAT;
    the benchmark client running directly on the physical host, linked to
    the host bridge via NAT. *)

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

val create :
  ?seed:int64 ->
  ?cost_model:Nest_virt.Cost_model.t ->
  ?num_vms:int ->
  ?sharded:Nest_sim.Sharded.t * int ->
  ?prefix:string ->
  ?rng:Nest_sim.Prng.t ->
  unit ->
  t
(** [num_vms] defaults to 1 (Figs. 2–8); pod-pair experiments use 2.
    VM i is "vm<i+1>" at 10.0.0.<i+2> on bridge "virbr0" (10.0.0.1/24).
    The client namespace is 192.168.100.2, masqueraded as 10.0.0.1.

    [sharded] embeds the testbed in shard [i] of an existing
    {!Nest_sim.Sharded} group instead of creating a private engine
    ([seed] is then unused — seed the group, or pass [rng]); the group's
    owner advances it with {!Nest_sim.Sharded.run}, not {!run_until}.
    [prefix]
    prepends every entity/device/namespace name (multi-node scenarios
    use ["n<i>:"] so metrics and traces from cohabiting testbeds stay
    distinguishable).  [rng] keys the node's random streams on a
    caller-owned stream so they are independent of engine placement. *)

val vm : t -> int -> Nest_virt.Vm.t
(** 0-based. Raises [Failure] when out of range. *)

val node : t -> int -> Nest_orch.Node.t
val client_entity : string
val run_until : t -> Nest_sim.Time.ns -> unit
(** Runs the testbed's own engine to the given date. *)

val client_app_exec : t -> name:string -> Nest_sim.Exec.t
(** Application context for a benchmark client process on the host. *)
