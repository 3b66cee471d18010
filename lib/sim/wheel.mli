(** Hierarchical timing wheel with a heap-backed overflow.

    Drop-in replacement for {!Heap} on the engine's hot path: push and
    pop are O(1) for events within ~2^30 ticks of the current minimum
    (six levels of 32 slots, lazily cascaded), and far-future events
    spill to an ordinary binary heap until the wheel advances into
    their frame.  Events sharing one tick are sorted by sequence once
    per batch filed, then popped in O(1) each.

    The ordering contract is identical to {!Heap}: [pop] returns
    entries in ascending priority, FIFO among equal priorities (a
    per-wheel sequence number assigned at push time breaks ties).
    Priorities must be non-negative; a priority below the last
    extracted minimum is clamped up to it, i.e. events cannot be
    scheduled into the already-delivered past. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> prio:int -> 'a -> unit
(** [push t ~prio v] files [v] at [prio] (clamped to the current
    minimum's tick if below it). *)

val pop : 'a t -> (int * 'a) option
(** Extracts the (priority, value) with the smallest priority,
    first-in-first-out among equal priorities. *)

type 'a entry

val entry_prio : 'a entry -> int
val entry_value : 'a entry -> 'a

val pop_entry : 'a t -> 'a entry
(** {!pop} for the event loop: returns the stored entry itself, so an
    extraction allocates nothing.  Raises [Invalid_argument] when the
    wheel is empty. *)

val min_prio : 'a t -> int
(** Priority [pop] would return next, without removing it; -1 when the
    wheel is empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Drops all entries and resets the wheel to tick 0. *)
