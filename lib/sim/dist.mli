(** Random-variate generation on top of {!Prng}.

    All samplers take the generator explicitly so call sites stay
    deterministic and auditable. *)

val exponential : Prng.t -> mean:float -> float
(** Exponential variate with the given mean (inverse-CDF method). *)

val normal : Prng.t -> mu:float -> sigma:float -> float
(** Gaussian variate (Box-Muller; one draw per call, no caching, to keep
    stream consumption independent of call history). *)

val lognormal : Prng.t -> mu:float -> sigma:float -> float
(** Log-normal variate parameterized by the underlying normal. *)

val lognormal_mean_cv : Prng.t -> mean:float -> cv:float -> float
(** Log-normal parameterized by its own mean and coefficient of variation
    (stddev / mean); convenient for calibrating latency distributions. *)

val pareto : Prng.t -> shape:float -> scale:float -> float
(** Pareto type-I variate: support [scale, +inf), tail index [shape]. *)

val bounded_pareto : Prng.t -> shape:float -> lo:float -> hi:float -> float
(** Pareto truncated to [lo, hi]; used for heavy-tailed trace demands. *)

val bounded_pareto_int : Prng.t -> shape:float -> lo:int -> hi:int -> int
(** [int_of_float] of {!bounded_pareto} on [lo, hi], the same draw, with
    no float boxed on the way out. *)

val poisson : Prng.t -> mean:float -> int
(** Poisson variate (Knuth for small means, normal approximation above 60). *)

val zipf : Prng.t -> n:int -> s:float -> int
(** Zipf-distributed rank in [1, n] with exponent [s] (CDF inversion over a
    precomputed table would be faster; this uses rejection sampling which is
    adequate for the trace generator's volumes). *)
