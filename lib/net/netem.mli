(** Link impairment (tc-netem style): probabilistic loss, added delay
    with jitter, and a bounded egress queue with tail drop.

    [shape] wraps a device's egress: every transmitted frame first passes
    the impairment stage.  Apply it to both ends of a link to impair both
    directions.  Used by the test suite to exercise TCP loss recovery and
    available to experiments for sensitivity studies. *)

type t

val shape :
  Nest_sim.Engine.t ->
  Dev.t ->
  ?loss:float ->
  ?delay_ns:Nest_sim.Time.ns ->
  ?jitter_ns:Nest_sim.Time.ns ->
  ?limit:int ->
  rng:Nest_sim.Prng.t ->
  unit ->
  t
(** [loss] is the per-frame drop probability (default 0); [delay_ns] an
    added one-way delay (default 0); [jitter_ns] uniform extra jitter on
    it; [limit] the maximum frames in flight through the shaper, with
    tail drop (default unbounded). *)

val remove : t -> unit
(** Restores the device's original egress. *)

val passed : t -> int
val dropped_loss : t -> int
val dropped_overflow : t -> int

(** {2 Named link profiles}

    The degraded-network matrix (n3x-style tc profiles): each profile
    bundles one-way delay, jitter, loss probability and a queue limit
    under a stable name, usable both for {!shape} on a device and as
    per-link wire latencies in the [fleet] scenario (the
    profile's [p_delay] becomes the conservative lookahead; jitter and
    loss are applied per datagram by the wire's impairment stage). *)

type profile = {
  p_name : string;
  p_delay : Nest_sim.Time.ns;   (** One-way added delay. *)
  p_jitter : Nest_sim.Time.ns;  (** Uniform extra jitter on top. *)
  p_loss : float;               (** Per-frame drop probability. *)
  p_limit : int option;         (** Egress queue bound (tail drop). *)
}

val profiles : profile list
(** [datacenter] (25 µs ± 5 µs, lossless), [wan] (10 ms ± 1 ms, 0.1 %),
    [edge] (30 ms ± 5 ms, 0.5 %), [lossy] (5 ms ± 2 ms, 2 %, limit 64). *)

val profile : string -> profile option
val profile_names : unit -> string list
