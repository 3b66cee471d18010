(** Burn-driven per-node pod autoscaling.

    A controller owns one integer — the desired replica count of one
    service on one node — and re-evaluates it every [window] of
    simulated time against a live SLO burn reading (typically
    {!Nest_sim.Slo.worst_last_burn} of a server-side monitor).  The
    policy is deliberately asymmetric, like production autoscalers:

    - {e scale-up is proportional and eager}: at burn ≥ 1.0 (the whole
      error budget is burning), jump toward [ceil (desired × burn)]
      (clamped to [max]) on any tick — a 4× burn wants 4× the capacity
      {e now}, not four windows from now;
    - {e scale-down is one step and reluctant}: at burn ≤ 0.25, shrink
      by one replica, and only after four windows with no scaling;
    - between the thresholds the controller {e holds} — the hysteresis
      band that keeps a load hovering near the threshold from flapping
      pods up and down every window.

    Each change invokes [apply desired] inside the controller's own
    tick event, so the receiving pool (e.g.
    {!Nest_workloads.Netperf.udp_echo_pool}) mutates only on the
    owning shard's engine clock.  The controller never touches shared
    orchestrator state at runtime — its [max] is planned statically
    (see {!Autopilot.replica_headroom} in [nest_core]) precisely so
    that scaling cannot race the churn replay on another shard and
    break digest byte-identity (DESIGN.md §5e). *)

type t

val create :
  engine:Nest_sim.Engine.t ->
  ?label:string ->
  min:int ->
  max:int ->
  ?window:Nest_sim.Time.ns ->
  burn_source:(unit -> float) ->
  apply:(int -> unit) ->
  start:Nest_sim.Time.ns ->
  stop:Nest_sim.Time.ns ->
  unit ->
  t
(** Arms the evaluation ticks from [start + window] up to [stop] (they
    must not outlive the workload and wedge a draining run).  Initial
    desired count is [min]; [apply] is {e not} called for it — size the
    pool to [min] at setup.  [window] defaults to 100 ms.  Raises
    [Invalid_argument] on nonsense bounds ([min < 1], [max < min], a
    non-positive window). *)

val desired : t -> int
(** Current desired replica count. *)

val transitions : t -> int
(** Number of desired-count changes — the no-flap test's counter. *)

val events : t -> (Nest_sim.Time.ns * int) list
(** Every change as [(when, new_desired)], in time order — digest
    material for determinism checks. *)
