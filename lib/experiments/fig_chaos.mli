(** Chaos experiment: availability and recovery-latency percentiles
    under injected faults, across the four deployment modes.  The served
    cell carries a probe by default or a live workload (netperf UDP_RR,
    memcached) reporting goodput-under-fault and post-recovery latency;
    [standby] pre-provisions pooled Hostlo endpoints for QMP-free
    failover.  Cells fan out over {!Exp_util.Par}; output order is
    deterministic. *)

val default_rates : float list

val validate : rates:float list -> standby:int -> (unit, string) result
(** Every rate is a fault probability: [Error] names the first one
    outside [0, 1] (NaN included), or a standby depth outside
    [0, {!Exp_util.max_standby}].  {!run} and {!check} raise
    [Invalid_argument] on an [Error]; the CLI prints it and exits 1. *)

val run :
  ?rates:float list ->
  ?seed:int64 ->
  ?workload:Nest_fault.Chaos.workload ->
  ?standby:int ->
  quick:bool ->
  unit ->
  unit

val check :
  ?seed:int64 ->
  ?jobs:int ->
  ?workload:Nest_fault.Chaos.workload ->
  ?standby:int ->
  quick:bool ->
  unit ->
  bool
(** Determinism guard: runs a fixed cell set sequentially, fanned across
    [jobs] domains, and sequentially again; compares
    {!Nest_fault.Chaos.digest} per cell with {!Exp_util.digests_agree},
    which prints one line per cell and run, then a verdict.  Also
    fails on any exactly-once violation (leaked IPAM lease, broken
    {!Nest_virt.Vmm} invariant) in the sequential pass.  [true] iff all
    digests match and every cell is clean. *)
