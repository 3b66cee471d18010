(** The chaos experiment cell: one deployment mode, one fault rate, one
    private testbed.

    Each cell runs a pod-start storm through the orchestrator under the
    plan's QMP fault rates (time-to-ready, hot-plug retries, setups
    abandoned) concurrently with a served cell whose serving VM is
    crashed and supervisor-restarted on a fixed trial schedule
    (availability, per-crash recovery latency).  The served cell is
    either the default UDP echo probe or a real workload — netperf
    UDP_RR or memcached — in which case the cell additionally reports
    goodput-under-fault and post-recovery latency.  Recovery goes
    through the production paths: kubelet retry with exponential
    backoff, rescheduling of the dead node's pods, and re-establishment
    of the service through the mode's own CNI — for Hostlo, a fresh
    queue on the reflector that survived the member VM's death, or
    (with [standby > 0]) a pre-provisioned pooled endpoint claimed on a
    surviving VM with no QMP on the critical path.

    After the measurement horizon each cell drains its engine to
    quiescence and audits the exactly-once invariants: no IPAM lease
    without a live pod assignment (Brfusion) and
    {!Nest_virt.Vmm.check_invariants} empty.  Violations are carried in
    the outcome (and its digest) rather than raised, so sweeps report
    them instead of dying.

    Cells are self-contained and deterministic in
    (mode, rate, seed, workload, standby); {!digest} is the bit-identity
    guard CI compares across runs and [--jobs] levels. *)

type mode = [ `Nat | `Brfusion | `Overlay | `Hostlo ]

val mode_to_string : mode -> string
val all_modes : mode list

type workload = Probe | Rr | Mc

val workload_to_string : workload -> string
val workload_of_string : string -> workload option

type outcome = {
  o_mode : string;
  o_rate : float;
  o_workload : string;
  o_standby : int;
  o_pods : int;             (** storm pods requested *)
  o_ready : int;            (** distinct storm pods that reached ready *)
  o_lost : int;             (** evicted pods no surviving node could take *)
  o_setup_failed : int;     (** pod setups abandoned after all retries *)
  o_retries : int;          (** hot-plug retries spent by kubelets *)
  o_ttr_p50_ms : float;
  o_ttr_p99_ms : float;
  o_sent : int;             (** probes, or workload ops attempted *)
  o_recv : int;             (** replies, or workload ops completed *)
  o_availability : float;
  o_crashes : int;
  o_recovered : float list; (** recovery latency per recovered crash, ms *)
  o_rec_p50_ms : float;
  o_rec_p99_ms : float;
  o_unrecovered : int;
  o_goodput : float;        (** workload ops completed / s over the window *)
  o_lat_p50_us : float;     (** workload op latency, whole window *)
  o_lat_p99_us : float;
  o_post_p50_us : float;    (** latency after the last service recovery *)
  o_post_p99_us : float;
  o_standby_claims : int;   (** pooled Hostlo endpoints claimed *)
  o_retry_max_attempt : float; (** deepest backoff attempt reached *)
  o_retry_wait_ms : float;  (** total wall time sunk into backoff waits *)
  o_leaked_leases : int;    (** IPAM leases no live pod holds (must be 0) *)
  o_invariants : string list;
      (** {!Nest_virt.Vmm.check_invariants} at quiescence (must be []) *)
  o_slo : Nest_sim.Slo.compliance list;
      (** Windowed SLO compliance of the served cell: availability for
          probe cells, plus a p99 latency ceiling and a goodput floor
          for real workloads.  Covered by {!digest}. *)
  o_slo_lat : Nest_sim.Hdr.t;
      (** Run-wide completion-latency sketch (µs) from the SLO monitor;
          merge across cells ({!Nest_sim.Hdr.merge_into}) for fleet
          percentiles. *)
  o_skew_p99_us : float;
      (** p99 of the workload driver's coordinated-omission ledger:
          actual minus intended send time, µs (0 for probe cells). *)
  o_co_flagged : bool;
      (** Skew p99 exceeded the smallest SLO evaluation window — the
          closed loop was wedged for at least one whole reporting
          interval, so treat the completion-latency figures as
          survivors' statistics. *)
  o_corr_p50_us : float;
      (** wrk2-corrected latency percentiles: per completion, measured
          plus that op's own send skew.  Printed beside the measured
          numbers in coordinated-omission-flagged cells. *)
  o_corr_p99_us : float;
  o_timeline : (Nest_sim.Time.ns * string) list;
}

val run_cell :
  ?quick:bool -> ?workload:workload -> ?standby:int ->
  mode:mode -> rate:float -> seed:int64 -> unit -> outcome
(** [quick] shrinks the storm (6 pods to 4) and the crash-trial count
    (3 to 2) for smoke runs.
    [rate] drives the management-plane fault probabilities (including
    the [Partial_timeout] applied-but-ack-lost class) and the data-plane
    noise events; crash trials are always present (they are the recovery
    measurement).  [workload] (default [Probe]) selects what the served
    cell carries; [standby] (default 0, Hostlo only) pre-provisions that
    many pooled endpoints per (VM, pod) and fails the service over to a
    surviving VM on crash. *)

val digest : outcome -> string
(** MD5 hex of the cell's canonical rendering (fault timeline and every
    statistic) — equal digests mean bit-identical cells. *)

val pp_outcome : Format.formatter -> outcome -> unit
