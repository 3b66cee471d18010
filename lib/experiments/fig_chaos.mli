(** Chaos experiment: availability and recovery-latency percentiles
    under injected faults, across the four deployment modes.  The served
    cell carries a probe by default or a live workload (netperf UDP_RR,
    memcached) reporting goodput-under-fault and post-recovery latency;
    [standby] pre-provisions pooled Hostlo endpoints for QMP-free
    failover.  Cells fan out over {!Exp_util.Par}; output order is
    deterministic. *)

val default_rates : float list

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
