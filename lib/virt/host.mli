(** The physical machine: pCPUs, the host kernel's root network namespace,
    host bridges, vhost workers, and process namespaces for bare-metal
    processes (the benchmark clients in the paper's setup run directly on
    the host, linked to the host bridge). *)

open Nest_net

type t

val create :
  Nest_sim.Engine.t ->
  Nest_sim.Cpu_account.t ->
  ?cpus:int ->
  ?cost_model:Cost_model.t ->
  ?entity:string ->
  ?rng:Nest_sim.Prng.t ->
  name:string ->
  unit ->
  t
(** [cpus] defaults to 12 (the paper's Dell server); [entity] to "host".
    [rng] keys this host's random streams (and, transitively, those of
    its namespaces and guests) on a caller-owned stream instead of the
    engine root — sharded cluster scenarios pass a per-node stream so
    the node's draws do not depend on which sub-engine it shares. *)

val engine : t -> Nest_sim.Engine.t
val account : t -> Nest_sim.Cpu_account.t
val entity : t -> string
val cost_model : t -> Cost_model.t
val ns : t -> Stack.ns
(** Host root namespace (IP forwarding enabled). *)

val soft_exec : t -> Nest_sim.Exec.t
(** Host softirq context: bridge switching, veth crossings, forwarding. *)

val fresh_mac : t -> Mac.t
val rng : t -> Nest_sim.Prng.t

val ns_rng_src : t -> Nest_sim.Prng.t option
(** The stream child namespace stacks should split from: [Some (rng t)]
    when the host was created with an explicit [~rng], [None] (split
    from the engine root, the historical behaviour) otherwise. *)

val add_bridge : t -> name:string -> ip:Ipv4.t -> subnet:Ipv4.cidr -> Bridge.t
(** Creates a bridge, gives its self interface [ip] in the host namespace
    (so the host routes the bridged segment) and registers it by name. *)

val find_bridge : t -> string -> Bridge.t option
val tap_hop : t -> Hop.t

val masquerade : t -> src_subnet:Ipv4.cidr -> nat_ip:Ipv4.t -> unit
(** Installs host-level source NAT (the VMM's NAT of Fig. 1). *)

val new_vhost_exec : t -> name:string -> Nest_sim.Exec.t
(** A vhost kernel worker: host CPU charged as [sys] (the paper observes
    this attribution in §5.3.4). *)

val new_process_ns : t -> name:string -> entity:string -> Stack.ns
(** Namespace for a bare-metal process (e.g. the Netperf client), with its
    own execution contexts charged to [entity]. *)

val new_app_exec : t -> name:string -> entity:string -> Nest_sim.Exec.t
(** Application (usr) context for a host process. *)

val connect_ns_to_host :
  t -> Stack.ns -> host_ip:Ipv4.t -> ns_ip:Ipv4.t -> subnet:Ipv4.cidr -> unit
(** Veth pair between a process namespace and the host root namespace;
    installs addresses, the default route in [ns], and host-side routing. *)
