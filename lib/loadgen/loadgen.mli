(** Open-loop load generation with intended-start timestamping.

    A generator materializes an {!Arrival} schedule on one engine: each
    arrival event fires at its {e intended} start time, passes bounded-
    concurrency admission, draws a size from a {!Size_dist}, and hands
    the request to a dispatcher.  Latency is measured from the intended
    start — the timestamp recorded when the arrival was {e scheduled} to
    happen, not when the transport got around to sending it — so
    coordinated omission is structurally impossible: a stalled server
    inflates every in-flight request's measured latency instead of
    silently pausing the clock the way a closed loop does (the wrk2
    critique).

    Admission is a pluggable {!Admission.policy}: the default [Fixed]
    bound sheds arrivals beyond 64 outstanding; a [Burn] policy
    drives an AIMD concurrency limit from a live SLO burn reading; a
    [Codel] policy drops on persistent deadline misses.  A shed is a
    deliberate zero-time fast-fail — graceful degradation, not an
    outage — so shed arrivals are counted (the [shed] book entry) but
    {e not} fed to the SLO monitor; availability judges admitted work.
    Admitted requests that see no completion within [timeout] are
    {e lost}, their slot reclaimed — that is the error that burns the
    availability budget.

    Timeouts cost one event per timeout, not one per request: a
    generator keeps a single [loadgen:timeout] timer armed at its
    oldest unresolved deadline (intended start + [timeout]) and re-arms
    it each time it fires.  The deadline rule: at any instant, the
    generator first retires every request whose deadline is [<=] now,
    and only then takes an arrival or a reply.  So a reply landing
    exactly on its request's deadline finds it lost, and an arrival at
    that instant sees its slot already free.  {!Admission.on_lost} runs
    at the deadline's own instant.  This is the order one timeout event
    per request gave whenever the reply's delivering event was
    scheduled after the request's arrival event — true of any
    transport, whose reply leaves at least one event later.

    Determinism: a generator belongs to one engine (one shard in a
    {!Nest_sim.Sharded} scenario); every PRNG draw happens inside that
    engine's events, from a stream the caller keys off the root seed.
    Offered/shed/lost/completed counts, the completion trace and the
    latency sketch are therefore byte-identical for any [--jobs] /
    [--shards] split. *)

type counts = {
  offered : int;    (** Arrivals fired. *)
  admitted : int;   (** Passed admission and dispatched. *)
  shed : int;       (** Refused at admission (concurrency bound hit). *)
  lost : int;       (** Admitted but timed out without completion. *)
  completed : int;  (** Completed within the timeout. *)
}

type t

val create :
  engine:Nest_sim.Engine.t ->
  arrival:Arrival.t ->
  sizes:Size_dist.t ->
  rng:Nest_sim.Prng.t ->
  ?admission:Admission.policy ->
  ?burn_source:(unit -> float) ->
  ?timeout:Nest_sim.Time.ns ->
  ?slo:Nest_sim.Slo.t ->
  dispatch:(seq:int -> size:int -> unit) ->
  start:Nest_sim.Time.ns ->
  stop:Nest_sim.Time.ns ->
  unit ->
  t
(** Arms the arrival chain: the schedule's offsets are laid out from
    [start] and arrivals past [stop] are never scheduled (a finite
    trace process simply ends).  [dispatch ~seq ~size] is called inside
    the arrival event for every admitted request; the transport must
    call {!complete} with the same [seq] when the response lands.
    [admission] overrides the shed policy (default
    [Admission.fixed 64], the PR 9 behaviour);
    [burn_source] feeds a [Burn] policy its live SLO reading — wire it
    to {!Nest_sim.Slo.last_burn} of the objective shedding protects.
    The admission controller's window ticks stop at [stop + timeout].
    [timeout] defaults to 100 ms.  Raises [Invalid_argument] on a
    non-positive bound/timeout or an empty window. *)

val complete : t -> seq:int -> unit
(** Marks [seq] complete now: latency (µs, from intended start) goes to
    the sketch, the completion trace, and the SLO monitor.  Deadlines
    due now are retired first, so a [seq] whose deadline is now is
    already lost.  Stale completions — a [seq] already timed out, or
    never issued — are ignored, so transports may deliver duplicates
    safely. *)

val counts : t -> counts

val latency : t -> Nest_sim.Hdr.t
(** Mergeable latency sketch (µs from intended start): fleet-wide
    percentiles come from {!Nest_sim.Hdr.merge_into} across
    generators. *)

val iter_completions : t -> (Nest_sim.Time.ns -> float -> unit) -> unit
(** [iter_completions t f] calls [f at latency_us] for each completion,
    in completion order — digest material for determinism checks.  The
    trace is kept in flat arrays, not one record per request. *)

val admission_limit : t -> int
(** Current effective concurrency limit of the admission controller
    (see {!Admission.limit}). *)

val admission_transitions : t -> int
(** State changes of the admission controller so far (see
    {!Admission.transitions}). *)

(** {2 UDP frontend}

    A generator whose dispatcher ships each request as a tagged UDP
    datagram toward a request/response service (anything echoing
    payloads back, e.g. {!Nest_workloads.Netperf.udp_echo_server} or a
    {!Nest_net.Wire} gateway in front of one) and completes it when the
    matching tagged reply returns. *)

type Nest_net.Payload.app_msg += Lg_req of { gen : int; seq : int }
(** Request tag: echoed back unchanged by the service, matched on both
    fields.  [gen] fences generators sharing a wire gateway — a reply
    misrouted to another generator's socket is dropped, not
    miscounted. *)

val udp :
  engine:Nest_sim.Engine.t ->
  arrival:Arrival.t ->
  sizes:Size_dist.t ->
  rng:Nest_sim.Prng.t ->
  ?admission:Admission.policy ->
  ?burn_source:(unit -> float) ->
  ?timeout:Nest_sim.Time.ns ->
  ?slo:Nest_sim.Slo.t ->
  gen_id:int ->
  ns:Nest_net.Stack.ns ->
  exec:Nest_sim.Exec.t ->
  target:(unit -> (Nest_net.Ipv4.t * int) option) ->
  start:Nest_sim.Time.ns ->
  stop:Nest_sim.Time.ns ->
  unit ->
  t
(** Binds an ephemeral UDP socket in [ns]; each admitted arrival pays
    the application send cost on [exec] and sends [Lg_req] to whatever
    [target] currently returns ([None] means the request is simply
    never sent — the timeout counts it lost, which is exactly how an
    open-loop client experiences a vanished service). *)
