(** Deterministic, splittable pseudo-random number generator.

    The generator is a splitmix64 stream.  Determinism across runs for a
    fixed seed is a hard requirement: every experiment harness records its
    seed, and the test-suite pins exact values.  [split] derives an
    independent stream, which lets each subsystem own a generator without
    perturbing the draws of the others when the topology changes.

    The state is 8 bytes read and written unboxed, so {!int}, {!bits53}
    and {!next_int64}'s arithmetic allocate nothing; {!float} boxes
    only its result, and {!next_int64} only its [int64]. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh stream.  Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new independent stream (advances [t] once). *)

val next_int64 : t -> int64
(** Next raw 64-bit draw. *)

val float : t -> float
(** Uniform draw in [0, 1): {!bits53} scaled by 2{^ -53}. *)

val bits53 : t -> int
(** The next draw's 53 high bits, as an immediate int in [0, 2{^ 53}).
    A float returned from another module is boxed; a sampler that
    scales these bits itself (as {!Dist} does) allocates nothing for
    its uniform. *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [0, bound).  [bound] must be > 0. *)

val range_float : t -> float -> float -> float
(** [range_float t lo hi] draws uniformly in [lo, hi). *)
