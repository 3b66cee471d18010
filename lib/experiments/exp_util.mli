(** Shared helpers for the experiment harness. *)

open Nestfusion

type durations = {
  warmup : Nest_sim.Time.ns;
  measure : Nest_sim.Time.ns;
}

val durations : quick:bool -> durations
(** quick: 50 ms / 250 ms; full: 100 ms / 1 s. *)

val max_standby : int
(** The deepest Hostlo standby pool a fleet or chaos run accepts
    (1024): each endpoint is a plugged device, so the run's cost grows
    with the depth. *)

val clamp_split : nodes:int -> int * int -> int * int
(** A (shards, domains) split as it runs on a [nodes]-node scenario:
    shards clamped to [1, nodes], domains to [1, shards]. *)

val splits_for : nodes:int -> (int * int) list
(** The (shards, domains) splits every determinism check runs, (1,1)
    (2,1) (2,2) (4,2) (4,4), after {!clamp_split}, duplicates dropped
    (first kept, so the reference (1,1) stays first). *)

val digests_agree : title:string -> (string * (string * string) list) list -> bool
(** [digests_agree ~title cells]: each cell is [(label, runs)], its runs
    [(label, digest)] executions of the same computation, the first the
    reference.  Prints one ["<cell> <run>  <digest>  ok|MISMATCH"] line
    per run, then ["<title>: bit-identical"] (or [MISMATCH]).  True iff
    every run matches its cell's reference. *)

(** Observability switchboard for the experiment drivers (the CLI's
    [--trace]/[--metrics] flags).  [configure] sets what to collect;
    the [deploy_*_sync] helpers attach each testbed they create; [dump]
    prints everything collected so far and forgets the engines. *)
module Obs : sig
  val configure :
    ?trace:bool -> ?trace_capacity:int -> ?metrics:bool -> ?json:bool ->
    ?provenance:bool -> ?prov_sample:int -> ?timeline:bool ->
    ?timeline_period:Nest_sim.Time.ns -> unit -> unit
  (** Unspecified fields keep their previous value.  Defaults: everything
      off, capacity 8192, text output, 1 ms timeline period.
      [provenance] makes the [deploy_*_sync] helpers switch per-packet
      latency provenance on in the deployed namespaces; [prov_sample]
      sets the global 1-in-N provenance sampling period (clamped to >= 1,
      forwarded to {!Nest_sim.Provenance.set_sampling}); [timeline]
      samples each testbed's CPU account at [timeline_period] cadence. *)

  val export_chrome : unit -> Nest_sim.Trace_export.t
  (** Everything attached so far as one Chrome trace: each run becomes a
      trace process carrying its engine spans/instants and, when
      timelines were sampled, per-entity CPU counter tracks.  Does not
      discard the attachments. *)

  val dump : unit -> unit
  (** Prints collected metrics/traces (text, or JSON with [json:true])
      for every attached engine, then discards the attachments. *)

  val discard : unit -> unit
  (** Forgets attached engines without printing. *)
end

(** Cell-level parallelism for the experiment drivers.

    An experiment "cell" is one fresh testbed plus its workload —
    self-contained and deterministic, so independent cells can run on
    separate domains.  Figures fan their cells through {!Par.map};
    [run --jobs N] sets the width. *)
module Par : sig
  val set_jobs : int -> unit
  (** Clamps to ≥ 1.  Default 1 (fully sequential). *)

  val map : ('a -> 'b) -> 'a list -> 'b list
  (** [List.map] over up to {!set_jobs} domains (order-preserving; see
      {!Nest_sim.Domain_pool.map}).  Falls back to sequential while
      {!Obs.enabled} — observability dumps are ordered by attachment,
      which scripted runs diff against. *)
end

val deploy_single_sync :
  ?seed:int64 -> mode:Modes.single -> port:int -> unit ->
  Testbed.t * Deploy.server_site
(** Fresh testbed; drives the engine until deployment completes. *)

val deploy_pair_sync :
  ?seed:int64 -> mode:Modes.pair -> port:int -> unit ->
  Testbed.t * Deploy.pair_site

val provenance_probes :
  unit -> (string * Nest_sim.Provenance.entry list) list
(** The `obs` subcommand's comparison set: [`Nat], [`Brfusion],
    [`Hostlo], [`Overlay], labelled ["single:..."] / ["pair:..."]. *)

val print_attribution : string * Nest_sim.Provenance.entry list -> unit
(** Per-hop queue/service table for one probe result. *)

val header : string -> unit
(** Prints a boxed section header. *)

val row : string -> unit
val kv : string -> string -> unit

val pct : float -> float -> float
(** [pct a b] = 100 × (a − b) / b. *)
