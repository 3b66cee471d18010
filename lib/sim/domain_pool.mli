(** Fixed-size domain pool for embarrassingly parallel fan-out.

    An {!Engine} and everything scheduled on it must stay on one domain.
    What this module parallelizes is the experiment harness: independent
    cells (one testbed + workload each) share no mutable state and can
    run on separate domains.  The only other place the repository spawns
    domains is {!Sharded.run}, whose shard engines each stay on the
    domain that runs them. *)

val max_domains : int
(** 128: the most domains OCaml 5.1's runtime lets run at once, the
    calling domain included. *)

val check_parties : who:string -> int -> unit
(** [check_parties ~who n] raises [Invalid_argument] (naming [who])
    when [n] domains, the caller's included, exceed {!max_domains}. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed by up to [jobs] domains
    (the caller participates, so [jobs - 1] are spawned).  Order is
    preserved.  [jobs <= 1] degrades to plain [List.map] with no domain
    machinery.  Raises [Invalid_argument] before spawning anything when
    [min jobs (List.length xs)] exceeds {!max_domains}.  If any
    application of [f] raises, the first such exception (in input order)
    is re-raised with its backtrace after all domains have joined.

    [f] must not touch domain-unsafe shared state; engines, testbeds and
    workloads created {e inside} [f] are safe because each cell owns its
    world. *)
