(** Execution contexts (busy-until servers, optionally CPU-constrained).

    An [Exec.t] models a context that processes work in FIFO order with a
    bounded degree of parallelism ([width]): a guest softirq context is
    width 1; a kernel's process-context path is as wide as the machine's
    CPU count (many threads can be in a syscall at once); an application
    worker thread is width 1.  Work submitted while all slots are busy
    queues behind them, which turns per-packet CPU costs into throughput
    ceilings and queueing latency — the core of the paper's performance
    story.

    Binding the context to a {!Cpu_set.t} additionally caps the *sum* of
    all contexts' parallelism on one machine at its core count, so a VM
    saturates as a whole.

    A context optionally charges everything it executes to
    {!Cpu_account.t} (entity, category) pairs, so CPU breakdowns fall out
    of the same bookkeeping. *)

type t

val create :
  ?account:Cpu_account.t * string * Cpu_account.category ->
  ?also:(Cpu_account.t * string * Cpu_account.category) list ->
  ?width:int ->
  ?cpus:Cpu_set.t ->
  Engine.t ->
  name:string ->
  t
(** [width] defaults to 1.  [also] lists secondary accounting targets
    charged for every unit of work in addition to [account] — e.g. a
    guest vCPU context charges (vm, soft) and also (host, guest). *)

val name : t -> string

val submit : t -> cost:Time.ns -> (unit -> unit) -> unit
(** [submit t ~cost k] enqueues a work item needing [cost] ns of service;
    [k] runs at completion. *)

val submit_timed : t -> cost:Time.ns -> (unit -> unit) -> Time.ns
(** Like {!submit}, but returns the completion date, from which callers
    needing latency attribution recover [start = finish - cost].  The
    common path pays nothing extra for it. *)

val charge : t -> cost:Time.ns -> unit
(** Books and charges [cost] ns of work exactly as {!submit} does (the
    slot, the core and the accounts), but schedules no event: for work
    whose completion nothing waits on. *)

val engine : t -> Engine.t

val busy_until : t -> Time.ns
(** Earliest date a slot of this context frees up. *)
