(** Memcached server + memtier_benchmark client (Table 1 row 1).

    memtier drives a closed loop: 4 threads × 50 persistent TCP
    connections (Table 1), each issuing the next request as soon as the
    previous response arrives, with a SET:GET ratio of 1:10 over 100 B
    values.  Metrics are responses per second and the per-request
    latency distribution — Figs. 5 (gain), 11/12 (Hostlo overhead) and
    the CPU figures. *)

open Nestfusion

type result = {
  responses_per_sec : float;
  latency : Nest_sim.Stats.t;  (** Per-request, us. *)
  skew : Nest_sim.Stats.t;
      (** Per-request send skew (us): client-pool queueing between the
          loop deciding to issue an op and the request leaving.  The
          coordinated-omission bound on the published percentiles —
          figure paths print its p99 next to the latency numbers. *)
  gets : int;
  sets : int;
}

val run :
  Testbed.t ->
  App.endpoints ->
  ?warmup:Nest_sim.Time.ns ->
  ?duration:Nest_sim.Time.ns ->
  unit ->
  result
(** Table 1's constants: 4 client threads × 50 connections, 1:10
    SET:GET, 100 B values, 4 server worker threads.  [warmup] defaults
    to 100 ms, [duration] to 1 s. *)

(** {2 Fault-tolerant pieces (chaos cells)}

    {!run} owns the engine and assumes the server outlives the client;
    neither holds under fault injection.  [serve] is the server half on
    its own, re-deployable into a fresh pod namespace; [drive] is a
    memtier-shaped client whose connections are mortal: a request that
    times out twice in a row (or a connection that dies under it)
    suspends that loop, and the harness resumes suspended loops when it
    knows the service is back. *)

val serve :
  pool:App.Pool.t ->
  rng:Nest_sim.Prng.t ->
  Nest_net.Stack.ns ->
  port:int ->
  unit
(** Listen and service requests on the pool's worker threads (lognormal
    per-op cost drawn from [rng]), exactly as inside {!run}. *)

type mc_driver = {
  mcd_sent : unit -> int;
  mcd_dropped : unit -> int;      (** ops lost to the watchdog *)
  mcd_completions : unit -> (Nest_sim.Time.ns * float) list;
      (** (completion time, latency us) in completion order *)
  mcd_resume : unit -> unit;
      (** reconnect every suspended loop — call when the service is
          known to be back (the harness's re-deploy hook) *)
  mcd_skew : unit -> Nest_sim.Hdr.t;
      (** Coordinated-omission ledger (wrk2): per send, actual minus
          intended start in us.  A suspension remembers when the loop
          parked, so the whole outage — strikes, the parked wait, the
          reconnect — lands in the first post-resume send's skew. *)
  mcd_corrected : unit -> Nest_sim.Hdr.t;
      (** wrk2's corrected latency: per completion, measured plus that
          op's own send skew — the honest percentile when the skew
          ledger flags coordinated omission. *)
}

val drive :
  Testbed.t ->
  cl_ns:Nest_net.Stack.ns ->
  cl_new_exec:(string -> Nest_sim.Exec.t) ->
  target:(unit -> (Nest_net.Ipv4.t * int) option) ->
  ?conns:int ->
  ?slo:Nest_sim.Slo.t ->
  start:Nest_sim.Time.ns ->
  stop:Nest_sim.Time.ns ->
  unit ->
  mc_driver
(** Closed loops from [cl_ns] against whatever [target] currently
    answers (polled at each (re)connect).  Runs between [start] and
    [stop] of virtual time without ever calling [Engine.run].  The
    client runs 2 threads over [conns] connections (default 4), with a
    60 ms op timeout.  A 500 ms connect timeout bounds the handshake
    instead: it must outlive a SYN retransmission, because the first SYN
    after a re-deploy can chase a stale neighbour entry and only the
    retransmit reaches the replacement pod.  [slo] receives one
    {!Nest_sim.Slo.observe_sent} per op attempted and an [observe_ok] +
    [observe_latency] per completion. *)
