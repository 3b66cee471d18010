(** CPU-accounting timelines.

    {!Cpu_account.t} holds end-of-run totals per (entity, category).  A
    [Timeline.t] samples those totals at a fixed sim-time cadence while
    the engine runs, turning them into time series suitable for counter
    tracks in a trace viewer.

    The sampler reschedules itself every [period] until {!stop}ped, so
    it must be driven with [Engine.run ~until]; under an unbounded
    [Engine.run] it would keep the event queue non-empty forever. *)

type tick = {
  tick_ts : Time.ns;
  snap : (string * (Cpu_account.category * int) list) list;
      (** cumulative busy-ns per (entity, category) at [tick_ts] *)
}

type t

val create : ?period:Time.ns -> Engine.t -> Cpu_account.t -> t
(** [period] defaults to 1 ms of sim time.  Raises [Invalid_argument]
    when [period <= 0]. *)

val start : t -> unit
(** Begin sampling (first tick at the current sim date).  Idempotent. *)

val stop : t -> unit
(** Stop sampling; the pending tick, if any, becomes a no-op. *)

val period : t -> Time.ns

val ticks : t -> tick list
(** Oldest first. *)

val entities : t -> string list
(** Every entity that appears in any tick, sorted. *)

val series : t -> entity:string -> Cpu_account.category -> (Time.ns * int) list
(** Cumulative busy-ns samples for one (entity, category), oldest first;
    ticks predating the entity's first charge read as 0. *)

val pp : Format.formatter -> t -> unit
