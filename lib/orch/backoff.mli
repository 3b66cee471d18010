(** Deterministic exponential backoff for orchestrator retries.

    No jitter by design: a seeded fault-injection run must yield the
    same retry timeline every time, including under [--jobs N]. *)

type policy = {
  base_ns : Nest_sim.Time.ns;
  multiplier : float;
  max_delay_ns : Nest_sim.Time.ns;
  max_attempts : int;
}

val default : policy
(** 100 ms base, doubling, capped at 3.2 s, 6 attempts. *)

val delay_ns : policy -> attempt:int -> Nest_sim.Time.ns
(** Delay scheduled after the [attempt]-th failure (1-based),
    [base * multiplier^(attempt-1)] capped at [max_delay_ns]. *)

val schedule : policy -> (int * Nest_sim.Time.ns) list
(** The retry schedule as data: [(attempt, delay after that attempt
    fails)] for every attempt that has a retry behind it (so
    [max_attempts - 1] pairs — exhaustion of the last attempt is reported
    to the caller, not slept on).  Lets chaos reporting quantify
    retry-storm intensity without re-deriving the policy arithmetic. *)

val retry :
  Nest_sim.Engine.t ->
  policy ->
  ?on_retry:(attempt:int -> delay_ns:Nest_sim.Time.ns -> unit) ->
  (attempt:int -> k:(('a, string) result -> unit) -> unit) ->
  k:(('a, string) result -> unit) ->
  unit
(** [retry engine p op ~k] issues [op ~attempt:1] and re-issues after
    each [Error] with the policy's delay until success or
    [max_attempts], then passes the final result to [k].  [op] must
    call its continuation exactly once per issue. *)
