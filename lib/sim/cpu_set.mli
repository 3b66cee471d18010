(** A pool of CPU cores shared by execution contexts.

    An {!Exec.t} bound to a cpu-set cannot start work before both one of
    its own serialization slots *and* one core of the set are free, so a
    machine's total parallelism is capped by its core count: a VM with 5
    vCPUs saturates when its applications plus its kernel contexts demand
    more than 5 cores — the regime several of the paper's macro
    experiments live in.

    Core selection is best-fit: among cores free at the work's ready
    time, the one that became free *last* is chosen (so a busy context
    keeps re-using "its" core back-to-back instead of strewing
    reservations with dead gaps across the pool); when no core is free,
    the earliest-available one is used and the work waits.

    Cores are interchangeable, so the set keeps only their busy dates,
    sorted: a core id names a position in that order, valid from
    {!book} to its {!commit}.  Booking walks down past the cores busy
    beyond the ready date, and a commit moves one date into place. *)

type t

val create : cores:int -> t

val book : t -> ready:Time.ns -> int
(** [book t ~ready] picks the core for work ready at [ready]: the
    busiest already-free core, or else the one that frees up first.  The
    work starts at [max ready (free_at t core)].  Must be followed by
    {!commit}. *)

val free_at : t -> int -> Time.ns
(** Date the core's current booking ends. *)

val commit : t -> int -> finish:Time.ns -> unit
(** Marks the booked core busy until [finish]. *)

val busy_cores : t -> now:Time.ns -> int
(** Number of cores booked beyond [now]. *)
