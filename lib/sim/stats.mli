(** Sample accumulators for experiment metrics.

    A [t] keeps every sample (float) so that exact percentiles can be
    produced, plus running moments for O(1) mean/stddev queries.  Sample
    volumes in this project are bounded (at most a few hundred thousand per
    run), so retention is cheap and avoids quantile-sketch error.

    This exactness is load-bearing: figure results (fig4/5/11 latency
    tables) are byte-compared across commits, so their percentiles must
    not move by a bucket width.  Where a digest only needs to be
    *mergeable* — per-hop metrics, SLO windows, fleet-wide aggregation
    across [--jobs] cells — use {!Hdr} instead. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

val add : t -> float -> unit

val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val stddev : t -> float
(** Unbiased (n-1) sample standard deviation; 0 with fewer than 2
    samples. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100], by linear interpolation on the
    sorted samples.  Raises [Invalid_argument] when empty. *)

val samples : t -> float array
(** Copy of the raw samples in insertion order. *)

val merge : t -> t -> t
(** New accumulator holding both sample sets. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line [name: n=… mean=… sd=… p50=… p99=…] rendering. *)

(** Fixed-width-bin histogram, used for Fig. 9's savings distribution. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> bins:int -> h
  val add : h -> float -> unit

  val counts : h -> int array
  (** Per-bin counts; out-of-range samples are clamped to the edge bins. *)

  val bin_bounds : h -> int -> float * float
end
