(** NGINX server + wrk2 client (Table 1 row 2).

    wrk2 is an *open-loop*, constant-rate generator: requests are
    scheduled on a fixed timeline (10 k req/s) across 100 connections,
    and latency is measured from the *intended* send time — wrk2's
    coordinated-omission correction — so server queueing shows up fully
    in the distribution.

    The paper attributes most of the containerized NGINX latency to "the
    software itself rather than the networking layer" (§5.2.2): the
    containerized server's per-request service distribution is slower and
    far heavier-tailed than the native one, which is what [containerized]
    selects. *)

open Nestfusion

type result = {
  latency : Nest_sim.Stats.t;  (** Per-request from intended time, us. *)
  achieved_rate : float;
  requests : int;
}

val run :
  Testbed.t ->
  App.endpoints ->
  containerized:bool ->
  ?warmup:Nest_sim.Time.ns ->
  ?duration:Nest_sim.Time.ns ->
  unit ->
  result
(** Table 1's constants: 100 connections offering 10 k req/s for a 1 kB
    file, served by 4 NGINX workers.  [warmup] defaults to 100 ms,
    [duration] to 1 s. *)
