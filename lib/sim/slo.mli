(** Live SLO monitoring: declarative objectives, windowed burn-rate
    evaluation on the engine clock, violations as trace instants.

    A monitor is created with a list of {!spec}s and a stop horizon;
    each spec is evaluated every [window] of simulated time until the
    horizon (the self-scheduling ticks never outlive it, so a draining
    [Engine.run] still terminates).  Drivers feed it three kinds of raw
    observation — {!observe_sent} (an operation offered),
    {!observe_ok} (an operation completed), {!observe_latency} (a
    completion latency in µs) — and each window computes a burn rate:
    budget consumed over budget available.  [burn > 1] is a violation:
    recorded as a cat-["slo"] trace instant and a
    [slo.<name>.violations] metrics counter (registered on first
    violation only).

    All accounting is simulation-time driven, so reports are
    deterministic, and the run-wide latency digest is a mergeable
    {!Hdr.t} — fleet-wide percentiles across [--jobs] cells come from
    {!Hdr.merge_into} over the per-cell monitors. *)

type objective =
  | Latency_p of { p : float; limit_us : float }
      (** At most [1 - p/100] of window completions may exceed
          [limit_us]. *)
  | Availability of { target : float }
      (** Window completion ratio (ok/sent) must stay ≥ [target]. *)
  | Goodput of { floor_per_s : float }
      (** Window completion rate must stay ≥ [floor_per_s]. *)

type spec = { sname : string; objective : objective; window : Time.ns }

(** Spec constructors with a 500 ms default window. *)

val latency_p : ?window:Time.ns -> p:float -> limit_us:float -> unit -> spec
val availability : ?window:Time.ns -> target:float -> unit -> spec
val goodput : ?window:Time.ns -> floor_per_s:float -> unit -> spec

type t

val create :
  ?error:float ->
  ?start:Time.ns ->
  specs:spec list ->
  stop:Time.ns ->
  Engine.t ->
  t
(** Validates every spec ([Invalid_argument] on nonsense bounds) and
    arms one evaluation tick per spec, repeating every [spec.window]
    until [stop].  Windows begin at [start] (default: creation time) —
    set it to the workload's start so an idle lead-in is not counted as
    silent goodput windows.  [error] is the latency sketch's relative
    error bound. *)

val observe_sent : t -> unit
val observe_ok : t -> unit

val observe_latency : t -> float -> unit
(** Completion latency in microseconds; feeds both the run-wide sketch
    and every latency objective's window. *)

val latency : t -> Hdr.t
(** Run-wide completion-latency sketch (µs); merge across cells for
    fleet percentiles. *)

val last_burn : t -> name:string -> float option
(** Burn rate of the most recently completed window of the named spec
    (0.0 before the first window closes; [None] for an unknown name).
    This is the live reading control loops — admission controllers,
    autoscalers — consume.  It is only ever updated inside the monitor's
    own window-tick events, so a reader on the same engine observes a
    value that is a pure function of the deterministic event order. *)

val worst_last_burn : t -> float
(** Max of {!last_burn} across every spec (0.0 with no specs). *)

type compliance = {
  c_name : string;
  c_objective : objective;
  c_windows : int;      (** Full windows evaluated. *)
  c_violations : int;   (** Windows with burn > 1. *)
  c_worst_burn : float; (** Peak window burn; [infinity] possible. *)
}

val report : t -> compliance list
(** One entry per spec, in spec order. *)

val compliant : compliance -> bool

val compliance_ratio : compliance -> float
(** Fraction of windows without violation; 1.0 when no window
    completed. *)

val pp_compliance : Format.formatter -> compliance -> unit
