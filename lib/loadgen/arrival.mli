(** Open-loop arrival processes.

    An arrival process yields a monotone non-decreasing sequence of
    absolute offsets (ns from the workload's start) — the {e intended}
    start times of successive requests.  The schedule never depends on
    completions: that independence is what makes the load open-loop, and
    it is why latency measured from these offsets cannot suffer
    coordinated omission (a stalled server delays completions, never the
    schedule they are measured against).

    Stateful processes ([poisson]) consume their generator one draw per
    {!next}, in arrival order, so a process owned by one engine shard
    stays deterministic under any [--jobs]/[--shards] split. *)

type t

val ended : Nest_sim.Time.ns
(** [-1], the end sentinel: below every offset, which are all [>= 0]. *)

val next : t -> Nest_sim.Time.ns
(** Next arrival offset, unboxed.  Offsets are [>= 0] and monotone
    non-decreasing; {!ended} once a finite process is exhausted, or once
    a rate process's next offset is too large for an [int] (about 146
    years of nanoseconds; only a near-zero rate gets there), and on
    every call after that. *)

val constant : rate_per_s:float -> t
(** Evenly spaced arrivals: the k-th at [k / rate] seconds.  Raises
    [Invalid_argument] unless the rate is positive and finite. *)

val poisson : rng:Nest_sim.Prng.t -> rate_per_s:float -> t
(** Poisson process of the given mean rate: exponential inter-arrival
    times drawn from [rng] (one draw per arrival).  Raises
    [Invalid_argument] unless the rate is positive and finite. *)

val of_trace :
  users:Nest_traces.Trace.user list -> over:Nest_sim.Time.ns -> t
(** Trace-driven replay: one arrival per pod of the cluster trace, in
    (user, pod) order, evenly spaced over [(0, over]] — the trace's
    population lived as load rather than tallied offline.  Finite:
    yields exactly the trace's total pod count.  Raises
    [Invalid_argument] on a non-positive [over]. *)

val total : t -> int option
(** Number of arrivals a finite process will yield ([Some] for
    {!of_trace}; [None] for the infinite rate processes). *)
