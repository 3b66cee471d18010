(** Container images: a named artifact and a pull-time model (every image
    has four layers).  The paper's boot experiment runs with warm caches,
    so pulls are usually no-ops; the model still charges a realistic delay
    on first use per engine. *)

type t = {
  img_name : string;
  size_mb : int;
}

val make : name:string -> size_mb:int -> t

val pull_delay_ns : t -> cached:bool -> rng:Nest_sim.Prng.t -> Nest_sim.Time.ns
(** ~0 when cached; otherwise proportional to size with jitter. *)
