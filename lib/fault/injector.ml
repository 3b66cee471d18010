(* Binds a [Fault_plan.t] to a live testbed.

   Everything random here is drawn from the injector's own [Prng] stream,
   seeded from the plan — never from the engine's workload streams — so a
   fault plan perturbs the system only through the faults themselves, and
   the same (plan, testbed seed) pair replays the identical timeline on
   every run and at every [--jobs] level.  Installing a plan with no
   faults is free: no hooks, no scheduled events, no draws.

   Event targets (VMs, taps, namespaces) are resolved at fire time, not
   at install time, because a VM crash invalidates handles: a corruption
   burst aimed at a VM that died in the meantime is skipped and noted on
   the timeline rather than poking a dead device. *)

open Nest_net
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Metrics = Nest_sim.Metrics
module Prng = Nest_sim.Prng
module Vm = Nest_virt.Vm
module Vmm = Nest_virt.Vmm

type t = {
  plan : Fault_plan.t;
  tb : Nestfusion.Testbed.t;
  rng : Prng.t;
  mutable rev_timeline : (Time.ns * string) list;
  on_crash : Vm.t -> unit;
  on_restart : Vm.t -> unit;
}

let timeline t = List.rev t.rev_timeline

(* Timeline entry + "fault.<kind>" counter + trace instant.  Counters are
   registered lazily on first bump so a plan that never fires a given
   fault kind adds no zero-valued rows to the metrics dump. *)
let note t ~kind msg =
  let engine = t.tb.Nestfusion.Testbed.engine in
  t.rev_timeline <- (Engine.now engine, msg) :: t.rev_timeline;
  Metrics.bump (Metrics.counter (Engine.metrics engine) ("fault." ^ kind));
  Engine.trace_instant engine ~cat:"fault" ~name:kind ~arg:msg ()

(* Root-namespace NICs of a VM, loopback excluded: a corruption burst
   models FCS failures on the wire, which never touch lo. *)
let vm_nics vm =
  let ns = Vm.ns vm in
  let lo = Stack.loopback_dev ns in
  List.filter
    (fun d -> match lo with Some l -> not (d == l) | None -> true)
    (Stack.devices ns)

let with_vm t vm_name ~kind k =
  match Vmm.find_vm t.tb.Nestfusion.Testbed.vmm vm_name with
  | Some vm -> k vm
  | None -> note t ~kind (Printf.sprintf "%s skipped: %s not running" kind vm_name)

let schedule_event t ev =
  let engine = t.tb.Nestfusion.Testbed.engine in
  let vmm = t.tb.Nestfusion.Testbed.vmm in
  let at caption when_ f =
    Engine.schedule_at engine ~label:("fault:" ^ caption) ~at:when_ f
  in
  match ev with
  | Fault_plan.Vm_crash { at = t0; vm; restart_after } ->
    at "vm_crash" t0 (fun () ->
        (* A crash landing while the VM is [Restarting] is still a real
           event — it cancels the pending boot — but there is no dead
           incarnation to hand to [on_crash]. *)
        match Vmm.lifecycle vmm vm with
        | Some Vmm.Restarting ->
          note t ~kind:"vm_crash"
            (Printf.sprintf "%s crashed during restart" vm);
          Vmm.crash_vm vmm ~name:vm
        | _ ->
          with_vm t vm ~kind:"vm_crash" (fun dead ->
              note t ~kind:"vm_crash" (Printf.sprintf "%s crashed" vm);
              Vmm.crash_vm vmm ~name:vm;
              t.on_crash dead));
    (match restart_after with
    | None -> ()
    | Some delay ->
      at "vm_restart" (t0 + delay) (fun () ->
          let started =
            Vmm.restart_vm vmm ~name:vm
              ~k:(fun vm' ->
                note t ~kind:"vm_restart" (Printf.sprintf "%s restarted" vm);
                t.on_restart vm')
              ()
          in
          if not started then
            note t ~kind:"vm_restart"
              (Printf.sprintf "vm_restart skipped: %s not restartable" vm)))
  | Tap_exhaust { at = t0; tap; duration } ->
    let set b verb =
      match Vmm.find_tap vmm tap with
      | Some tp ->
        Tap.set_exhausted tp b;
        note t ~kind:"tap_exhaust" (Printf.sprintf "%s %s" tap verb)
      | None ->
        note t ~kind:"tap_exhaust"
          (Printf.sprintf "tap_exhaust skipped: no tap %s" tap)
    in
    at "tap_exhaust" t0 (fun () -> set true "rings full");
    at "tap_drain" (t0 + duration) (fun () -> set false "rings drained")
  | Conntrack_clamp { at = t0; scope; capacity; duration } ->
    let resolve k =
      match scope with
      | `Host -> k (Nest_virt.Host.ns t.tb.Nestfusion.Testbed.host) "host"
      | `Vm v ->
        with_vm t v ~kind:"conntrack_clamp" (fun vm -> k (Vm.ns vm) v)
    in
    at "conntrack_clamp" t0 (fun () ->
        resolve (fun ns where ->
            Conntrack.set_capacity (Stack.ct ns) (Some capacity);
            note t ~kind:"conntrack_clamp"
              (Printf.sprintf "%s conntrack clamped to %d" where capacity)));
    at "conntrack_unclamp" (t0 + duration) (fun () ->
        resolve (fun ns where ->
            Conntrack.set_capacity (Stack.ct ns) None;
            note t ~kind:"conntrack_clamp"
              (Printf.sprintf "%s conntrack unclamped" where)))
  | Corrupt_burst { at = t0; vm; prob; duration } ->
    at "corrupt_burst" t0 (fun () ->
        with_vm t vm ~kind:"corrupt_burst" (fun v ->
            List.iter
              (fun d ->
                Dev.set_corrupt d (Some (fun _ -> Prng.float t.rng < prob)))
              (vm_nics v);
            note t ~kind:"corrupt_burst"
              (Printf.sprintf "%s corrupting p=%.3f" vm prob)));
    at "corrupt_end" (t0 + duration) (fun () ->
        with_vm t vm ~kind:"corrupt_burst" (fun v ->
            List.iter (fun d -> Dev.set_corrupt d None) (vm_nics v);
            note t ~kind:"corrupt_burst" (Printf.sprintf "%s corruption over" vm)))

let install ?(on_vm_crash = fun _ -> ()) ?(on_vm_restart = fun _ -> ())
    (plan : Fault_plan.t) (tb : Nestfusion.Testbed.t) =
  let t =
    { plan; tb; rng = Prng.create plan.seed; rev_timeline = [];
      on_crash = on_vm_crash; on_restart = on_vm_restart }
  in
  (match plan.qmp with
  | None -> ()
  | Some rule ->
    Vmm.set_qmp_fault tb.Nestfusion.Testbed.vmm
      (Some
         (fun ~vm cmd ->
           (* One draw per command, fault or not, so the decision stream
              depends only on command order — never on prior outcomes. *)
           let u = Prng.float t.rng in
           if u < rule.fail_prob then begin
             note t ~kind:"qmp_fail"
               (Printf.sprintf "qmp %s to %s failed" (Nest_virt.Qmp.command_name cmd) vm);
             Vmm.Fail "injected fault"
           end
           else if u < rule.fail_prob +. rule.timeout_prob then begin
             note t ~kind:"qmp_timeout"
               (Printf.sprintf "qmp %s to %s timed out" (Nest_virt.Qmp.command_name cmd) vm);
             Vmm.Timeout rule.timeout_ns
           end
           else if
             u < rule.fail_prob +. rule.timeout_prob +. rule.partial_prob
           then begin
             note t ~kind:"qmp_partial_timeout"
               (Printf.sprintf "qmp %s to %s applied, ack lost"
                  (Nest_virt.Qmp.command_name cmd) vm);
             Vmm.Partial_timeout rule.timeout_ns
           end
           else Vmm.Pass)));
  List.iter (schedule_event t) plan.events;
  t
