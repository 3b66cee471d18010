(** Netperf (§5.1): the micro-benchmark behind Figs. 2, 4 and 10.

    - [tcp_stream]: one connection, the client sends fixed-size messages
      as fast as the socket accepts them for the measurement window; the
      metric is average payload throughput.
    - [udp_rr]: synchronous request/response transactions, one at a
      time; the metric is the transaction latency distribution.

    Both run a warmup before the measured window and drive the engine to
    completion themselves. *)

open Nestfusion

type stream_result = {
  mbps : float;              (** Payload Mbit/s over the window. *)
  bytes_delivered : int;
  sends : int;
}

val tcp_stream :
  Testbed.t ->
  App.endpoints ->
  msg_size:int ->
  ?warmup:Nest_sim.Time.ns ->
  ?duration:Nest_sim.Time.ns ->
  unit ->
  stream_result
(** Defaults: 100 ms warmup, 2 s measured (the paper uses 20 s wall
    time; in simulation the steady state is reached well within 2 s —
    benches can lengthen it). *)

type rr_result = {
  latency : Nest_sim.Stats.t;  (** Per-transaction round-trip, us. *)
  transactions : int;
}

val udp_rr :
  Testbed.t ->
  App.endpoints ->
  msg_size:int ->
  ?warmup:Nest_sim.Time.ns ->
  ?duration:Nest_sim.Time.ns ->
  unit ->
  rr_result

val default_sizes : int list
(** The message-size sweep of Figs. 4 and 10: 64 B .. 16 KiB. *)

(** {2 Fault-tolerant UDP_RR driver}

    {!udp_rr} drives the engine itself, which a chaos cell cannot allow.
    The driver below is purely event-scheduled: the same closed loop and
    application costs, but each transaction is armed with a resend
    watchdog so a dead or restarting server costs counted losses rather
    than a wedged loop. *)

val udp_echo_server :
  Nest_net.Stack.ns -> port:int -> exec:Nest_sim.Exec.t ->
  Nest_net.Stack.Udp.sock
(** The UDP_RR server half on its own (the one {!udp_rr} binds): echo
    after the per-transaction application cost on [exec].  Re-deployable
    into a fresh pod namespace after a crash. *)

type rr_driver = {
  rrd_sent : unit -> int;        (** transactions attempted so far *)
  rrd_lost : unit -> int;        (** given up on by the resend watchdog *)
  rrd_completions : unit -> (Nest_sim.Time.ns * float) list;
      (** (completion time, round-trip us) in completion order — the
          harness splits these into during-fault and post-recovery
          windows itself. *)
  rrd_skew : unit -> Nest_sim.Hdr.t;
      (** Coordinated-omission ledger (wrk2): per send, actual minus
          intended start in us, where intended is the previous
          completion plus the client's per-call cost — or, after a
          watchdog fire, the lost op's own send time.  A loop wedged
          behind a dead server records its stall here even though the
          completed-RTT histogram stays flat. *)
  rrd_corrected : unit -> Nest_sim.Hdr.t;
      (** wrk2's corrected latency: per completion, the measured RTT
          plus that operation's own send skew — what the op would have
          measured had it left on time.  The honest percentile to quote
          when the skew ledger flags coordinated omission. *)
}

val udp_rr_driver :
  Nestfusion.Testbed.t ->
  cl_ns:Nest_net.Stack.ns ->
  cl_exec:Nest_sim.Exec.t ->
  target:(unit -> (Nest_net.Ipv4.t * int) option) ->
  msg_size:int ->
  ?slo:Nest_sim.Slo.t ->
  start:Nest_sim.Time.ns ->
  stop:Nest_sim.Time.ns ->
  unit ->
  rr_driver
(** Closed-loop UDP_RR from [cl_ns] against whatever [target] currently
    answers (polled per send, so the harness can re-point it after a
    re-deploy; [None] while the service is down just burns watchdog
    losses).  A transaction with no reply within 10 ms is lost and the
    loop sends the next.  Runs between [start] and [stop] of virtual
    time without ever calling [Engine.run].  [slo] receives one
    {!Nest_sim.Slo.observe_sent} per transaction attempted and an
    [observe_ok] + [observe_latency] per completion. *)

(** {2 Scalable UDP echo pool}

    The serving side of a fleet node under autoscaling: [max] worker
    contexts ("pods") created up front for a deterministic exec roster,
    requests round-robined over the active prefix, and an activation
    knob an {!Nest_orch.Autoscaler} drives from inside its own tick
    events.  Warm standby workers activate instantly (the Deploy
    standby-pool story); cold ones pay a boot delay.  Deactivating a
    worker only stops routing to it — work already on its exec
    completes on schedule, so scale-down never strands a request. *)

type echo_pool = {
  epool_set_active : int -> unit;
      (** Set the routed-worker count, clamped to [1 .. max].  Growing
          past the warm set boots cold workers asynchronously; shrinking
          drains.  Call only from events of the owning engine. *)
  epool_active : unit -> int;       (** Routed prefix size (desired). *)
  epool_ready : unit -> int;        (** Workers actually serving now. *)
  epool_served : unit -> int;       (** Requests accepted so far. *)
  epool_cold_starts : unit -> int;  (** Boot delays paid so far. *)
  epool_close : unit -> unit;
}

val udp_echo_pool :
  ns:Nest_net.Stack.ns ->
  port:int ->
  new_exec:(string -> Nest_sim.Exec.t) ->
  ?service_cost:Nest_sim.Time.ns ->
  max:int ->
  ?standby:int ->
  ?slo:Nest_sim.Slo.t ->
  unit ->
  echo_pool
(** [new_exec] is the worker-context factory (e.g. a deployment site's
    [site_new_exec]); it is called exactly [max] times at creation.
    Worker 0 starts ready, the next [standby] start warm, the rest cold
    (a cold worker boots in 50 ms when activated).  Each request pays
    [service_cost] (default: the echo server's per-transaction cost) on
    its worker before the reply leaves.  [slo] — a {e server-side}
    monitor — receives sent at arrival and ok/latency at reply, where
    latency is the request's queueing plus service time on the node;
    its burn is what a co-located autoscaler should read.  [standby]
    defaults to 0; [max] must be at least 1. *)
