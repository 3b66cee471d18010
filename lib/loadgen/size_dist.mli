(** Request-size distributions for the load generator.

    Sizes are application bytes (the payload size handed to the
    dispatcher).  Heavy-tailed web-object mixes come from the bounded
    Pareto, the same family the trace generator uses for resource
    demands. *)

type t =
  | Fixed of int                                  (** Every request [n] bytes. *)
  | Uniform of { lo : int; hi : int }             (** Uniform in [lo, hi]. *)
  | Pareto of { shape : float; lo : int; hi : int }
      (** Bounded Pareto in [lo, hi] with tail index [shape]; most mass
          near [lo], rare elephants near [hi]. *)

val draw : t -> Nest_sim.Prng.t -> int
(** One size draw (exactly one PRNG consumption for the random
    variants, zero for [Fixed] — stream usage is shape-stable).  Raises
    [Invalid_argument] on nonsense bounds. *)
