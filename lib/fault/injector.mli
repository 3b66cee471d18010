(** Binds a {!Fault_plan.t} to a live testbed.

    All randomness comes from the injector's private [Prng] stream seeded
    by the plan, so a fault plan perturbs the run only through the faults
    themselves and the timeline replays bit-identically across runs and
    [--jobs] levels.  Installing {!Fault_plan.empty} is free — no hooks,
    no scheduled events, no RNG draws. *)

type t

val install :
  ?on_vm_crash:(Nest_virt.Vm.t -> unit) ->
  ?on_vm_restart:(Nest_virt.Vm.t -> unit) ->
  Fault_plan.t -> Nestfusion.Testbed.t -> t
(** Installs the plan's QMP fault oracle on the testbed's VMM and
    schedules every plan event on its engine.  Event targets are resolved
    at fire time; events aimed at a VM or tap that no longer exists are
    skipped and noted on the timeline.  [on_vm_crash] fires right after a
    [Vm_crash] took the VM down, with the dead incarnation's handle
    (recovery hook: mark the node NotReady, reschedule its pods, release
    leases held by its namespaces); it does not fire for a crash that
    lands during a restart (no incarnation existed — the pending boot is
    cancelled instead).  [on_vm_restart] hands over the freshly re-booted
    VM when its [boot_delay] completes, [restart_after] plus the boot
    window after the crash. *)

val timeline : t -> (Nest_sim.Time.ns * string) list
(** Every fault that fired (and every skip), in virtual-time order.  Each
    entry is also recorded as a ["fault.<kind>"] metrics bump and a
    [cat:"fault"] trace instant. *)
