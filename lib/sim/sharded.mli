(** Sharded parallel simulation: conservative per-shard event loops with
    link-latency lookahead.

    A sharded run partitions a scenario's state (hosts, namespaces,
    devices, VMs, workload endpoints) into [shards] sub-engines — each an
    ordinary {!Engine.t} with its own event queue, metrics registry and
    (optionally) trace ring.  Within a shard, events execute in exactly
    the engine's [(prio, seq)] order.  Shards interact only through
    {!link}s: timestamped channels whose [lookahead] is a lower bound on
    the latency of every message sent across them (the simulated
    inter-node link delay — netem/VXLAN underlay latency in this
    repository's scenarios).  Messages for a shard, whatever the link,
    wait in that shard's one inbox, so the per-event cost of the loop
    does not depend on how many links a scenario declares.

    Synchronization is conservative, in the classic null-message style:
    each shard may execute events strictly earlier than
    [min over source shards (publisher clock + smallest lookahead of
    that source's links into the shard)] — one term per source shard,
    however many links it has.  A shard
    that is blocked (or out of work) broadcasts its clock floor — the
    lower bound on its next event — so neighbours can advance even when
    a link is idle; these broadcasts are counted as null messages in
    {!stats}.  Because lookahead is required to be positive, the
    broadcast fixpoint always makes progress and the system cannot
    deadlock.  While a shard is executing events it publishes its clock
    only on demand: a blocked neighbour posts the floor it waits for,
    and the shard publishes once its clock reaches that floor.

    On one domain, a sweep over all shards that executes no event jumps
    every shard's floor to the earliest pending work item in the whole
    system, so idle stretches cost a fixed number of rounds however long
    they are.  With several domains there is no such jump: while every
    shard is idle, each null round lifts a floor by one lookahead, so an
    idle stretch costs rounds in proportion to its simulated length
    divided by the smallest lookahead.

    Determinism is a hard invariant: a message's delivery date is fixed
    at send time, deliveries at equal dates order by (link creation
    order across all shards, per-link send order) and execute before
    same-date local events, so results are byte-identical however many
    shards the scenario is folded onto and however many domains execute
    them — [shards=1 ≡ shards=N], [domains=1 ≡ domains=D]. *)

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
    events for tracing/profiling on the destination engine.

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

val run : ?until:Time.ns -> ?domains:int -> t -> unit
(** Advances every shard to [until] (events dated [<= until] execute;
    every sub-engine clock ends at [>= until]).  [domains] (default 1)
    spreads shards across that many OCaml domains — results are
    identical for any value; only wall-clock time changes.  Omitting
    [until] drains every queue and inbox instead, which is only
    supported single-domain (raises [Invalid_argument] with
    [domains > 1]). *)

type shard_stats = {
  ss_shard : int;
  ss_clock : Time.ns;      (** Sub-engine clock after the last run. *)
  ss_events : int;         (** Events executed (local + deliveries). *)
  ss_delivered : int;      (** Cross-shard inbox deliveries executed. *)
  ss_blocked : int;        (** Times the loop stalled on lookahead. *)
  ss_null : int;
      (** Null messages: clock floors this shard broadcast when it found
          nothing it could execute.  Publishes made on demand after an
          event and the one-domain idle jump are not counted. *)
  ss_pending : int;
      (** Work left beyond the horizon: queued local events plus inbox
          messages. *)
}

val stats : t -> shard_stats array
(** Per-shard progress/imbalance counters, indexed by shard.  Every
    field is deterministic on one domain.  With [domains > 1],
    [ss_blocked] and [ss_null] count how often a shard found its
    neighbours behind, which depends on how the domains interleave; the
    other fields do not. *)
