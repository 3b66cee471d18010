(** Discrete-event simulation engine.

    The engine owns a virtual clock (nanoseconds since simulation start) and
    a priority queue of pending events.  [run] pops events in timestamp
    order; each event is a thunk that may schedule further events.  All the
    network devices, CPU contexts and workload generators in this repository
    are driven by one engine instance per experiment.

    The queue's one bound ({!Heap} says why): every queued event's date
    lies within 2^42 ns (about 73 minutes) of every other one's.
    {!schedule}, {!schedule_at} and {!schedule_labeled} raise
    [Invalid_argument], queueing nothing, for a date that would break
    it.

    The engine is also the anchor for observability state: it always owns a
    {!Metrics.t} registry, and optionally carries a {!Trace.t} ring plus a
    per-event-class wall-clock profile.  Tying these to the engine (rather
    than module globals) means their lifetime is exactly one run — a fresh
    engine starts with empty metrics, no tracer and no profile. *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh engine at time 0.  [seed] initializes the root RNG stream
    (default [0x5EEDL]); subsystems should [Prng.split] their own streams
    from {!rng}. *)

val now : t -> Time.ns
(** Current simulated date. *)

val rng : t -> Prng.t
(** Root random stream of this engine. *)

type label
(** An event class, as an int id in this engine's label table: labels
    ride in the event queue as ints, so scheduling a labeled event
    allocates nothing beyond its thunk. *)

val unlabeled : label
(** The id of [""]: such events are not bracketed by trace spans and
    profile as ["<unlabeled>"]. *)

val label : t -> string -> label
(** The id of a label string in this engine, registered on first use
    ([""] is {!unlabeled}).  Hot callers resolve their id once and
    schedule through {!schedule_labeled}. *)

val schedule : t -> ?label:string -> delay:Time.ns -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t + max 0 delay].  [label]
    names the event class (e.g. the executing context) for tracing and
    profiling; unlabeled events are not bracketed by trace spans.
    Raises past the queue's bound (see above). *)

val schedule_at : t -> ?label:string -> at:Time.ns -> (unit -> unit) -> unit
(** Absolute-date variant; dates in the past fire immediately (at [now]).
    Raises past the queue's bound (see above). *)

val schedule_labeled : t -> label -> at:Time.ns -> (unit -> unit) -> unit
(** {!schedule_at} with a pre-resolved label: no table lookup, and no
    allocation once the queue's arrays are sized.  Raises past the
    queue's bound (see above). *)

val next_at : t -> Time.ns
(** Date of the earliest queued event, or [max_int] when the queue is
    empty (no option, so the shard loop's per-event poll allocates
    nothing).  The conservative shard loop ({!Sharded}) uses this to decide
    whether the next local event is safe to execute. *)

val advance_to : t -> Time.ns -> unit
(** Moves the clock forward to the given date (never backwards) without
    executing anything — the end-of-horizon clamp [run ~until] applies,
    exposed for external drivers. *)

val run_external : t -> at:Time.ns -> label -> (unit -> unit) -> unit
(** Executes one event that never sat in this engine's queue (a
    cross-shard mailbox delivery): advances the clock to [at] (clamped
    to [now]), counts it in {!events_processed}, and brackets it with an
    [engine:<label>] span when labeled and a tracer is installed. *)

val run : ?until:Time.ns -> t -> unit
(** Pops events until the queue drains, or until the clock would pass
    [until] (events strictly after [until] remain queued; the clock is left
    at [until]). *)

val step : t -> bool
(** Executes exactly one event.  Returns [false] when the queue is empty. *)

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int
(** Total number of events executed so far (monotonic). *)

(** {2 Observability} *)

val metrics : t -> Metrics.t
(** This engine's metrics registry.  Pre-populated with the
    [engine.events_processed] and [engine.pending] gauges. *)

val set_tracer : t -> Trace.t option -> unit
(** Installs (or removes) the event tracer.  With a tracer installed,
    labeled events are bracketed by [engine:<label>] spans and subsystems
    emit per-hop instants via {!trace_instant}. *)

val tracer : t -> Trace.t option

val trace_instant :
  t -> cat:string -> name:string -> ?arg:string -> unit -> unit
(** Records an instant at [now t] on the installed tracer; no-op (one
    option check) when tracing is disabled. *)

val enable_profiling : ?clock:(unit -> float) -> t -> unit
(** Starts accumulating per-label event counts, host wall time and
    minor words.  [clock] defaults to [Sys.time]; tests inject a
    deterministic one.  It is read exactly twice per event, around the
    event's body; the default is called directly, so it allocates
    nothing, where a [clock] closure boxes each reading.  Idempotent (a
    second call only replaces the clock). *)

val profile : t -> (string * int * float) list
(** [(label, events, host_seconds)] per event class, most expensive first;
    events scheduled without a label appear as ["<unlabeled>"].  Empty
    when profiling was never enabled. *)

val alloc_profile : t -> (string * int * float) list
(** [(label, events, minor_words)] per event class, most words first:
    the allocation ledger.  Each event's words are the [Gc.minor_words]
    delta across its body, read inside the profiling clock's readings
    (the reads themselves allocate nothing), so the rows hold the
    events' own allocation and none of the profiler's.  Exact when the
    engine runs alone on its domain. *)
