(** Random-variate generation on top of {!Prng}.

    All samplers take the generator explicitly so call sites stay
    deterministic and auditable. *)

val exponential : Prng.t -> mean:float -> float
(** Exponential variate with the given mean (inverse-CDF method). *)

val lognormal_mean_cv : Prng.t -> mean:float -> cv:float -> float
(** Log-normal parameterized by its own mean and coefficient of variation
    (stddev / mean); convenient for calibrating latency distributions. *)

val bounded_pareto : Prng.t -> shape:float -> lo:float -> hi:float -> float
(** Pareto truncated to [lo, hi]; used for heavy-tailed trace demands. *)

val bounded_pareto_int : Prng.t -> shape:float -> lo:int -> hi:int -> int
(** [int_of_float] of {!bounded_pareto} on [lo, hi], the same draw, with
    no float boxed on the way out. *)

val poisson : Prng.t -> mean:float -> int
(** Poisson variate (Knuth for small means, normal approximation above 60). *)
