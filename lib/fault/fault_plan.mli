(** Declarative fault schedules.

    A plan is pure data — fault rates for the management plane plus
    discrete fault events pinned to virtual times.  {!Injector.install}
    binds a plan to a live testbed.  Separating description from
    machinery is what makes chaos runs reproducible: the same
    (plan, engine seed) pair always yields the same fault timeline,
    bit-identical under [--jobs N]. *)

module Time = Nest_sim.Time

type qmp_rule = {
  fail_prob : float;      (** P(command answered with Error) *)
  timeout_prob : float;   (** P(command lost, times out), rolled after fail *)
  partial_prob : float;
      (** P(command {e applied} but the ack lost — the caller times out
          and retries a command that already took effect), rolled after
          the other two.  The nasty case exactly-once hot-plug exists
          for: without the VMM's reply journal every such retry leaks a
          duplicate device (and, for BrFusion, an IPAM lease). *)
  timeout_ns : Time.ns;   (** wait before a timed-out caller learns *)
}

val qmp_rule :
  ?fail_prob:float -> ?timeout_prob:float -> ?partial_prob:float ->
  ?timeout_ns:Time.ns -> unit -> qmp_rule
(** Defaults: all probabilities 0, timeout 500 ms. *)

type event =
  | Vm_crash of { at : Time.ns; vm : string; restart_after : Time.ns option }
      (** QEMU process death; optionally supervised restart. *)
  | Tap_exhaust of { at : Time.ns; tap : string; duration : Time.ns }
      (** Full vhost rings: the named tap drops everything for a while. *)
  | Conntrack_clamp of {
      at : Time.ns;
      scope : [ `Host | `Vm of string ];
      capacity : int;
      duration : Time.ns;
    }
      (** nf_conntrack table clamp: new flows dropped while full. *)
  | Corrupt_burst of {
      at : Time.ns;
      vm : string;
      prob : float;
      duration : Time.ns;
    }
      (** Receive-side FCS failures: each frame a NIC of the VM's root
          namespace receives is dropped with probability [prob]. *)

type t = {
  seed : int64;           (** seeds the injector's private Prng stream *)
  qmp : qmp_rule option;
  events : event list;
}

val empty : t
(** No faults at all.  Installing it is free: no hooks, no scheduled
    events, no RNG draws — runs are bit-identical to no injector. *)

val make : ?seed:int64 -> ?qmp:qmp_rule -> ?events:event list -> unit -> t

val is_empty : t -> bool

val event_at : event -> Time.ns
