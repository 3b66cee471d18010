(** Synthetic cluster-trace generator, calibrated to the published shape
    of the Google 2011 cluster traces as used in §5.3.1: heavy-tailed
    per-user job (pod) counts, small multi-task jobs, and per-task
    resource requests normalized to the largest machine with a
    heavy-tailed distribution concentrated well below 0.1.

    The real trace is not redistributable here; the generator exercises
    the identical packing code over the same distributions (see the
    substitution table in DESIGN.md). *)

val max_users : int
(** 100 000: the most users {!generate} draws. *)

val users : seed:int64 -> Trace.user Seq.t
(** The endless stream of users for a seed, numbered from 0, each drawn
    when its node is forced.  Every traversal restarts from the seed, so
    two traversals give equal users; within one, force each node once. *)

val generate : seed:int64 -> users:int -> Trace.user list
(** The first [users] users of {!users}: deterministic for a given seed,
    and [generate ~seed ~users:k] is a prefix of
    [generate ~seed ~users:m] for [k <= m].  The paper evaluates 492
    users.  Raises [Invalid_argument] when [users] is outside
    [0, max_users]. *)

val first_pods : seed:int64 -> max_users:int -> int -> Trace.pod array
(** [first_pods ~seed ~max_users n] is the first [n] pods, in order, of
    the first [max_users] users of {!users}, or all of them when those
    users hold fewer.  It draws only the users that hold them. *)

val default_users : int
(** 492. *)
