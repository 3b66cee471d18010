(** Sharded parallel simulation: conservative per-shard event loops with
    link-latency lookahead.

    A sharded run partitions a scenario's state (hosts, namespaces,
    devices, VMs, workload endpoints) into [shards] sub-engines — each an
    ordinary {!Engine.t} with its own event queue, metrics registry and
    (optionally) trace ring.  Within a shard, events execute in exactly
    the engine's [(prio, seq)] order.  Shards interact only through
    {!link}s: timestamped channels whose [lookahead] is a lower bound on
    the latency of every message sent across them (the simulated
    inter-node link delay — the underlay latency of a wire's named link
    profile in this repository's scenarios).

    Synchronization is conservative, in lookahead windows (the
    bounded-lag rule): with L the smallest lookahead over links between
    two different shards, each window starts at T, the earliest pending
    work item on any shard, and every shard executes its work dated
    below [T + L] and not past the horizon.  Nothing sent in a window
    can land inside it, so the shards of one window run independently;
    at the barrier that ends it, messages in flight join their
    destination's inbox and the next window starts at the earliest
    pending work item again, so an idle stretch costs no window however
    long it is.  A link whose source is its destination needs no
    barrier: a group without cross-shard links (one shard, say) runs
    each engine straight to the horizon in one window.

    Determinism is a hard invariant: a message's delivery date is fixed
    at send time, deliveries at equal dates order by (link creation
    order across all shards, per-link send order) and execute before
    same-date local events, and windows depend on event dates alone, so
    results are byte-identical however many shards the scenario is
    folded onto and however many domains execute them — [shards=1 ≡
    shards=N], [domains=1 ≡ domains=D]. *)

type t

type link
(** A unidirectional cross-shard channel with conservative lookahead. *)

val create : ?seed:int64 -> shards:int -> unit -> t
(** [shards] sub-engines.  Each sub-engine's root RNG seed is derived
    deterministically from [seed] and the shard index; scenario state
    that must be identical across shard counts should draw from streams
    keyed on the *partition* (per node), not from the sub-engine root.
    Raises [Invalid_argument] when [shards <= 0]. *)

val shards : t -> int

val engine : t -> int -> Engine.t
(** The sub-engine of shard [i] (0-based).  Raises [Invalid_argument]
    when out of range. *)

val link :
  t -> src:int -> dst:int -> lookahead:Time.ns -> ?label:string -> unit ->
  link
(** Declares a channel from shard [src] to shard [dst] on which every
    send is delayed by at least [lookahead].  [label] names delivery
    events for tracing/profiling on the destination engine, whose label
    table resolves it once, here.

    [lookahead] must be strictly positive: a zero-lookahead link would
    let a neighbour's event at date [t] schedule work here at the same
    [t], leaving no safe horizon to execute ahead to — the conservative
    loop could deadlock on an idle link.  Raises [Invalid_argument
    "Sharded.link: lookahead must be > 0 (a zero-lookahead link cannot
    be synchronized conservatively and would deadlock)"]. *)

val send : t -> link -> delay:Time.ns -> (unit -> unit) -> unit
(** [send t l ~delay fn], called from within an event executing on the
    link's source shard, runs [fn] on the destination shard at
    [source now + delay].  [delay] must be [>= lookahead] (the link's
    conservative promise); raises [Invalid_argument] otherwise. *)

val run : until:Time.ns -> ?domains:int -> t -> unit
(** Advances every shard to [until] (events dated [<= until] execute;
    every sub-engine clock ends at [>= until]).  [domains] (default 1)
    spreads shards across that many OCaml domains, capped at the shard
    count — results are identical for any value; only wall-clock time
    changes.  Raises [Invalid_argument] before spawning anything when
    that capped count exceeds {!Domain_pool.max_domains}.  A domain
    waiting at a window's barrier spins briefly, then blocks, so domains
    beyond the host's cores yield them.  An exception raised by an event
    ends the run at the end of its window, on every domain, and [run]
    re-raises it. *)

type shard_stats = {
  ss_shard : int;
  ss_clock : Time.ns;      (** Sub-engine clock after the last run. *)
  ss_events : int;         (** Events executed (local + deliveries). *)
  ss_delivered : int;      (** Cross-shard inbox deliveries executed. *)
  ss_windows : int;
      (** Barrier rounds of the whole group, the same on every shard. *)
  ss_critical : int;
      (** Events run in the windows where this shard was the busiest
          (the lowest index on ties).  Summed over the shards, the
          length of the run in events if every window cost its busiest
          shard's events. *)
  ss_pending : int;
      (** Work left beyond the horizon: queued local events plus inbox
          messages. *)
}

val stats : t -> shard_stats array
(** Per-shard progress/imbalance counters, indexed by shard, cumulative
    over runs.  Every field follows from event dates alone, so it is the
    same on any host and for any [domains]. *)
