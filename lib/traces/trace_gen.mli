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

val generate : seed:int64 -> users:int -> Trace.user list
(** Deterministic for a given seed.  The paper evaluates 492 users.
    Users are drawn one after another from one stream, so
    [generate ~seed ~users:k] is a prefix of [generate ~seed ~users:m]
    for [k <= m].  Raises [Invalid_argument] when [users] is outside
    [0, max_users]. *)

val first_pods : seed:int64 -> max_users:int -> int -> Trace.pod array
(** [first_pods ~seed ~max_users n] is the first [n] pods, in order, of
    [generate ~seed ~users:max_users], or all of them when those users
    hold fewer.  It draws only the users that hold them. *)

val default_users : int
(** 492. *)
