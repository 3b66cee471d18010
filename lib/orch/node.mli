(** A cluster node: one VM running a kubelet agent and a container
    engine.  Tracks requested resources for the scheduler. *)

type t

type agent_counters = { mutable configured : int }
(** The node agent's bookkeeping ({!Kubelet}): NICs configured.  Kept on
    the node so it lives and dies with it. *)

val create : Nest_virt.Vm.t -> t
(** Capacity is the VM's vCPU count and memory. *)

val vm : t -> Nest_virt.Vm.t
val docker : t -> Nest_container.Engine.t
val name : t -> string

val agent_counters : t -> agent_counters

type resources = private {
  cpu_cap : float;
  mem_cap : float;
  mutable cpu_req : float;
  mutable mem_req : float;
  mutable fraction : float;  (** {!requested_fraction}, kept current *)
}
(** Capacity and requests, in the units of the accessors below.  The
    record holds only floats, so it is stored flat: reading a field
    allocates nothing, where the accessors return their float boxed
    to a caller in another module. *)

val resources : t -> resources
(** The node's own record, read-only; {!reserve} and {!release} update
    it in place. *)

val cpu_capacity : t -> float
val mem_capacity : t -> float
val cpu_requested : t -> float
val mem_requested : t -> float

val ready : t -> bool
(** Node condition, [true] at creation.  The chaos controller flips it
    when the backing VM crashes or comes back. *)

val set_ready : t -> bool -> unit

val fits : t -> cpu:float -> mem:float -> bool
(** False for not-ready nodes, so the scheduler skips them. *)

val reserve : t -> cpu:float -> mem:float -> unit
(** Raises [Invalid_argument] when it would overcommit. *)

val release : t -> cpu:float -> mem:float -> unit

val requested_fraction : t -> float
(** Mean of cpu and memory requested fractions — the score of
    Kubernetes's "most requested" policy. *)
