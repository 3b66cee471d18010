(** Baseline VM purchase plan: Kubernetes-style *whole-pod* scheduling
    (§5.3.1 steps 1–3).

    Per user, starting from no VMs: pods are scheduled offline, biggest
    first; each pod goes whole onto the already-bought VM that the "most
    requested" policy prefers, or a new VM of the cheapest model that can
    host the whole pod is bought. *)

type vm = {
  vm_id : int;
  vm_model : Aws.model;
  mutable contents : (int * Nest_traces.Trace.container_req) list;
      (** (pod id, container) placements. *)
  mutable used_cpu : float;
  mutable used_mem : float;
}

type plan = {
  plan_user : Nest_traces.Trace.user;
  mutable vms : vm list;
}

val vm_free_cpu : vm -> float
val vm_free_mem : vm -> float

type policy = Most_requested | Least_requested | First_fit

val pack_user : ?policy:policy -> Nest_traces.Trace.user -> plan
(** Whole-pod packing under the given placement policy (default
    [Most_requested], Kubernetes's consolidation strategy — the paper's
    baseline; the others exist for ablations).  Raises [Failure] if some
    pod exceeds the largest model (the trace generator never produces
    one). *)

val plan_cost : plan -> float
(** $/hour. *)

val plan_vm_count : plan -> int

val copy_plan : plan -> plan
(** Deep copy (fresh VM records); lets callers keep the baseline while
    improving a copy. *)

val check_invariants : plan -> unit
(** Raises [Failure] if any VM is overcommitted or any container is lost
    or duplicated w.r.t. the user's trace. *)
