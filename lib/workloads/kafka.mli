(** Kafka broker + kafka-producer-perf-test client (Table 1 row 3).

    The producer offers records at a constant rate (120 k msg/s, 100 B
    records) into an accumulator; batches are flushed when they reach
    8192 B or when the 5 ms linger timer fires.  Record latency is
    measured from the producer [send()] of each record to the broker's
    acknowledgement of its batch — so it contains accumulation wait,
    network transfer of the multi-segment batch, and broker processing. *)

open Nestfusion

type result = {
  latency : Nest_sim.Stats.t;  (** Per-record, us. *)
  msgs_per_sec : float;
  batches : int;
  records : int;
}

val run :
  Testbed.t ->
  App.endpoints ->
  ?containerized:bool ->
  ?rate_per_sec:int ->
  ?warmup:Nest_sim.Time.ns ->
  ?duration:Nest_sim.Time.ns ->
  unit ->
  result
(** Table 1's constants: 100 B records, 8192 B batches, a 5 ms linger,
    2 broker request handlers.  [rate_per_sec] defaults to Table 1's
    120 000 msg/s (a slower rate lets the linger timer flush partial
    batches), [warmup] to 100 ms, [duration] to 1 s. *)
