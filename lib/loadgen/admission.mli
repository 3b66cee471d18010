(** SLO-burn admission control for open-loop generators.

    PR 9's generator shed by one fixed rule: refuse an arrival whenever
    [outstanding >= max_outstanding].  That bound is a blunt instrument:
    set high it lets queueing delay eat the whole latency SLO before a
    single request is refused; set low it sheds even when the service is
    healthy.  This module makes the shed decision a {e policy}:

    - {!Fixed} — the PR 9 rule, byte-compatible with the old behaviour.
    - {!Burn} — burn-rate shedding with hysteresis: an AIMD concurrency
      limit driven by a live SLO burn reading (typically
      {!Nest_sim.Slo.last_burn} of the latency objective).  Every
      [window] the controller looks at the burn: at or above 1.0 it
      halves the limit (multiplicative decrease — shed hard while the
      whole SLO budget is burning), at or below 0.25 it adds one
      (additive recovery), and {e between the two thresholds it holds} —
      the hysteresis band that keeps a square-wave load from flapping
      the limit every window.
    - {!Codel} — CoDel-style deadline-aware drop: completions above
      [target_us] that persist for a full [interval] tip the controller
      into a dropping state whose shed frequency grows as
      [interval/sqrt(drops)] (the CoDel control law) until a completion
      under the target resets it.

    Every decision is made {e on the engine clock}: policy state only
    changes inside the generator's arrival events and the controller's
    own window-tick events, both of which are ordinary events of the
    owning shard's engine.  No wall clock, no cross-shard reads — so a
    scenario digest is byte-identical for any [(shards, domains)]
    split (see DESIGN.md §5e). *)

type policy =
  | Fixed of int
      (** Shed when [outstanding >= bound].  [Loadgen]'s historical
          behaviour. *)
  | Burn of {
      floor : int;        (** Limit never decreases below this. *)
      init : int;         (** Opening limit (slow start from the floor
                              by default — an opening limit at the
                              ceiling would let the first window build
                              a ceiling-deep queue). *)
      ceiling : int;      (** Limit never increases above this. *)
      window : Nest_sim.Time.ns;  (** Re-evaluation cadence. *)
    }
  | Codel of {
      target_us : float;  (** Acceptable completion latency. *)
      interval : Nest_sim.Time.ns;
          (** How long latency must stay above target before dropping
              starts (and the initial drop spacing). *)
      ceiling : int;      (** Hard outstanding bound, always enforced. *)
    }

val fixed : int -> policy

val burn :
  ?floor:int -> ?init:int -> ?ceiling:int -> ?window:Nest_sim.Time.ns ->
  unit -> policy
(** Defaults: floor 1, init = floor, ceiling 64, window 100 ms. *)

val codel :
  ?target_us:float -> ?interval:Nest_sim.Time.ns -> ?ceiling:int -> unit ->
  policy
(** Defaults: target 5000 µs, interval 100 ms, ceiling 64. *)

type t

val create :
  engine:Nest_sim.Engine.t ->
  ?burn_source:(unit -> float) ->
  ?stop:Nest_sim.Time.ns ->
  policy ->
  t
(** [burn_source] is the live SLO reading a {!Burn} policy re-evaluates
    every window (ignored by the other policies); wire it to
    {!Nest_sim.Slo.last_burn} of the objective shedding should protect.
    A [Burn] controller schedules its window ticks on [engine] up to
    [stop] (mandatory for [Burn]: the ticks must not outlive the
    workload and wedge a draining run).  Raises [Invalid_argument] on
    nonsense bounds ([floor < 1], [ceiling < floor], [init] outside
    [floor, ceiling], non-positive windows/targets,
    missing [stop] for [Burn]). *)

val decide : t -> outstanding:int -> bool
(** Admission decision for an arrival happening {e now} (must be called
    inside an event of the owning engine): [true] admits, [false]
    sheds.  Mutates policy state (CoDel's drop schedule), so call it
    exactly once per arrival. *)

val on_complete : t -> latency_us:float -> unit
(** Feed a completion latency (µs, from intended start). *)

val on_lost : t -> unit
(** Feed an admitted-but-timed-out request. *)

val limit : t -> int
(** Current effective concurrency limit ([Fixed]/[Burn]); [Codel]
    reports its hard ceiling. *)

val transitions : t -> int
(** Times the controller changed state (limit moved, or CoDel entered /
    left its dropping state) — the hysteresis test's flap counter. *)
