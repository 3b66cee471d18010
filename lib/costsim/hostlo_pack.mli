(** Hostlo improvement pass (§5.3.1 step 4): with cross-VM pods allowed,
    containers — no longer pods — become the placement unit.

    Starting from the Kubernetes whole-pod plan, the pass repeatedly
    (a) tries to *empty* the least-utilized VM by moving its containers,
    smallest first, into the most-wasteful remaining VMs, and (b) tries
    to *downsize* each VM to the cheapest model that still holds its
    contents.  Both directly implement the paper's "moving containers to
    the VMs that have the most wasted resources, smallest containers
    first, ... reducing the number of needed VMs or shrinking the sizes
    of VMs". *)

type stats = {
  vms_removed : int;
  vms_downsized : int;
  containers_moved : int;
}

val improve_copy : Kube_pack.plan -> Kube_pack.plan * stats
(** Improves a deep copy, leaving the baseline plan untouched. *)
