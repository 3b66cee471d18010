(** Simulated time, expressed as integer nanoseconds.

    Using [int] gives 63 usable bits on 64-bit platforms, i.e. simulated
    horizons of ~292 years, far beyond any experiment here. *)

type ns = int
(** A duration or an absolute simulated date, in nanoseconds. *)

val us : int -> ns
val ms : int -> ns
val sec : int -> ns

val to_sec_f : ns -> float
val to_us_f : ns -> float
val to_ms_f : ns -> float

val pp : Format.formatter -> ns -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
