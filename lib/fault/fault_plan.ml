(* Declarative fault schedules.

   A plan is pure data: which management-plane fault rates apply, and
   which discrete fault events fire at which virtual times.  Binding a
   plan to a live testbed — installing hooks, scheduling events, drawing
   random decisions — is [Injector]'s job.  Keeping the description
   separate from the machinery is what makes chaos runs reproducible:
   the same (plan, engine seed) pair always produces the same fault
   timeline, bit-identical under [--jobs N], because every random choice
   is drawn from the plan's own [Prng] stream in engine-event order. *)

module Time = Nest_sim.Time

type qmp_rule = {
  fail_prob : float;      (* P(command answered with Error) *)
  timeout_prob : float;   (* P(command lost, times out), after fail roll *)
  partial_prob : float;   (* P(command APPLIED but ack lost), after both *)
  timeout_ns : Time.ns;   (* how long a timed-out caller waits *)
}

let qmp_rule ?(fail_prob = 0.0) ?(timeout_prob = 0.0) ?(partial_prob = 0.0)
    ?(timeout_ns = Time.ms 500) () =
  { fail_prob; timeout_prob; partial_prob; timeout_ns }

type event =
  | Vm_crash of { at : Time.ns; vm : string; restart_after : Time.ns option }
      (* QEMU process death; optionally supervised restart *)
  | Tap_exhaust of { at : Time.ns; tap : string; duration : Time.ns }
      (* full vhost rings: the named tap drops everything for a while *)
  | Conntrack_clamp of {
      at : Time.ns;
      scope : [ `Host | `Vm of string ];
      capacity : int;
      duration : Time.ns;
    }
      (* nf_conntrack table clamped: new flows are dropped when full *)
  | Corrupt_burst of {
      at : Time.ns;
      vm : string;
      prob : float;        (* per-frame corruption probability *)
      duration : Time.ns;
    }
      (* receive-side FCS failures: the VM's NICs drop what they receive *)

type t = {
  seed : int64;            (* seeds the injector's private Prng stream *)
  qmp : qmp_rule option;
  events : event list;
}

let make ?(seed = 1L) ?qmp ?(events = []) () = { seed; qmp; events }
