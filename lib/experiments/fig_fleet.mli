(** Fleet-scale trace replay under open-loop load.

    [nodes] single-node testbeds on {!Nest_sim.Sharded}, each running
    one of the paper's deployment modes round-robin (NAT, BrFusion,
    Hostlo — the last as an intra-pod pair with a warm standby pool):
    the heterogeneous fleet.  Every node carries an open-loop
    {!Nest_loadgen.Loadgen} — Poisson or constant arrivals, heavy-tailed
    sizes, intended-start timestamping — against its service: NAT and
    BrFusion nodes are wired in a ring through {!Nest_net.Wire} relays
    (optionally under a named {!Nest_net.Wire.profile} with per-link
    loss/jitter, and optional link-flap fault plans); Hostlo nodes drive
    their pod-local service over the multiplexed host loopback.
    Meanwhile a {!Nest_traces.Trace_gen} cluster trace is replayed
    {e live} through the scheduler on a control-plane shard: pods arrive
    continuously over the measurement window, are placed by
    most-requested priority fleet-wide, live out exponential lifetimes
    and depart — churn under load, with unschedulable arrivals counted.

    Every entry point goes through one private scenario: a [build] step
    validates the params, clamps the split ({!Exp_util.clamp_split}),
    deploys, wires the ring, starts the generators with the one request
    timeout and arms the churn; a [play] step runs the sharded group to
    the horizon that timeout fixes; and one [tally] folds any node list
    into request books (offered, shed, lost, completed), merged HDR
    latency, pods, scale events and the worst availability burn.
    [summarize] tallies the whole fleet, [run] and [frontier] also
    tally each mode's generating and serving members, and [digest]
    hashes every node's counts and completion trace plus the churn
    outcome — byte-identical for any [--shards]/[--domains] split. *)

type admission_policy = [ `Fixed | `Burn | `Codel ]
(** Client-side shed policy of every generator (see
    {!Nest_loadgen.Admission}): [`Fixed] is the PR 9 outstanding bound;
    [`Burn] an AIMD limit driven by the node's own latency-SLO burn;
    [`Codel] deadline-aware dropping. *)

val admission_of_string : string -> admission_policy option

type params = {
  nodes : int;        (** Fleet size (default 8). *)
  pods : int;         (** Trace pods replayed through the scheduler (default 200). *)
  rate : float;       (** Fleet-wide open-loop arrival rate, req/s (default 2000). *)
  arrival : [ `Poisson | `Constant ];  (** Arrival process (default Poisson). *)
  profile : Nest_net.Wire.profile option;  (** Inter-node link profile. *)
  fault_rate : float; (** Per-link-direction flap probability (default 0). *)
  standby : int;      (** Hostlo standby pool depth; also warm workers per
                          serving pool (default 0). *)
  admission : admission_policy;  (** Shed policy (default [`Fixed]). *)
  autoscale : bool;   (** Per-node pod autoscaler on the serving pools,
                          driven by server-side SLO burn (default off). *)
  service_us : float; (** Per-request service cost on a pod, µs
                          (default 0.25 — the thin echo loop). *)
  pods_max : int;     (** Per-node pool ceiling, further clamped by the
                          node's static replica headroom (default 4). *)
  seed : int64;
}

val default_params : params

val validate : params -> (unit, string) result
(** The one check of a [params] record, NaN-safe: [Error msg] names the
    first bad field as its CLI flag ("rate must be in (0, 1e+07] (got
    nan)").  Nodes, rate, pods and standby have upper bounds (16384
    nodes, 1e7 req/s, 1 000 000 pods, {!Exp_util.max_standby}) so that
    every accepted run finishes, and service-us one (1 s) so that a
    pod's backlog of completions stays inside the event queue's span.
    Every entry point that runs the scenario raises [Invalid_argument]
    on an [Error]; the CLI prints it and exits 1. *)

val run :
  ?params:params -> ?shards:int -> ?domains:int -> quick:bool -> unit -> unit
(** Runs the scenario and prints a header naming the split that ran,
    per-node rows, per-mode SLO/HDR tables, the [fleet total:] line
    (the same tally as {!summarize}), the churn outcome, the digest and
    the shard table.  In every entry point, [shards] (default 1) is
    capped at the node count and [domains] (default 1) at the shard
    count. *)

type summary = {
  s_offered : int;
  s_shed : int;
  s_lost : int;
  s_completed : int;
  s_p99_us : float;         (** Merged completed-RTT p99 across nodes. *)
  s_avail_worst_burn : float;
      (** Worst availability-window burn across all node monitors:
          < 1.0 means no window ever exhausted its error budget. *)
  s_pods : int;             (** Final active serving pods, fleet-wide. *)
  s_scale_events : int;     (** Autoscaler transitions, fleet-wide. *)
  s_windows : int;          (** Lookahead windows ({!Nest_sim.Sharded}). *)
  s_critical : int;
      (** Critical events summed over the shards: the run's length in
          events if every window cost its busiest shard. *)
  s_digest : string;
}

val summarize :
  ?params:params -> ?shards:int -> ?domains:int -> quick:bool -> unit ->
  summary
(** Runs the scenario and returns the machine-readable outcome the
    graceful-degradation acceptance tests assert on. *)

val frontier :
  ?params:params -> ?shards:int -> ?domains:int -> quick:bool -> unit -> unit
(** Shedding-vs-scaling sweep: the fleet under degraded link profiles
    (wan, lossy, and "flaky" = lossy + link flaps) crossed with the
    admission × autoscaling grid; one row per (link, control, mode)
    with the shed fraction charged to the generating mode and the
    completions/p99 delivered by the serving mode. *)

val check : ?params:params -> quick:bool -> unit -> bool
(** Determinism guard: the digest at every split of
    {!Exp_util.splits_for} (the shared split list as it runs on
    [params.nodes] nodes, duplicates dropped) must match the (1,1) one;
    prints one line per split that ran ({!Exp_util.digests_agree}). *)
