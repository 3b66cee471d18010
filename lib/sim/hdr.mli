(** Bounded-error log-bucketed streaming histogram (HDR/DDSketch-style).

    Replaces keep-every-sample accumulators where only a digest is
    needed: O(1) {!add} into dense logarithmic buckets whose midpoint is
    within [error] (default 1 %) relative error of any sample in the
    bucket, while count, sum, min and max are tracked exactly.  Two
    sketches with the same [error] merge by bucket-wise addition, which
    makes percentiles composable across engine shards and [--jobs]
    cells — the property sort-based {!Stats} percentiles cannot offer.

    Memory is bounded: the bucket array covers only the occupied index
    range (≈700 buckets for values spanning 1 ns…10 s at 1 % error) and
    indices are clamped outside [1e-12, 1e18].  Non-positive and NaN
    samples land in a dedicated zero bucket (they still count toward
    [count]/[sum]/extrema). *)

type t

val create : ?error:float -> unit -> t
(** [error] is the relative error bound in (0, 1), default [0.01].
    Raises [Invalid_argument] outside that range. *)

val add : t -> float -> unit

val count : t -> int
val total : t -> float
(** Exact sum of all samples. *)

val mean : t -> float
(** Exact; 0 when empty. *)

val min : t -> float
(** Exact smallest sample; [infinity] when empty. *)

val max : t -> float
(** Exact largest sample; [neg_infinity] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100] by nearest rank over the
    buckets; within the [error] bound of the exact value, and
    always clamped into [[min t, max t]].  0 when empty (unlike
    {!Stats.percentile}, a sketch query cannot raise: fleet aggregation
    reads empty cells). *)

val merge_into : into:t -> t -> unit
(** Adds all of [src]'s mass into [into].  Commutative and associative
    up to bucket contents, so any merge order over a set of sketches
    yields identical percentiles.  Raises [Invalid_argument] when the
    error bounds differ. *)
