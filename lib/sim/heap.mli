(** The engine's event queue: a min-priority queue keyed by
    [(priority, sequence)].

    One implicit 4-ary heap plus one front slot outside it.  A push
    earlier than everything queued takes the slot (moving a slot entry
    it precedes into the heap), and a pop takes the slot first, so an
    event that schedules the next one to run costs no sift at all; any
    other push or pop costs O(log n) sift steps.  The slot's entry
    always comes before every heap entry in [(priority, sequence)]
    order.  Each entry carries an int tag beside its value (the engine
    keeps its event's label id there).  Once its arrays are sized,
    neither push nor {!pop_value} allocates, and neither does the tag:
    it is stored and read back as an immediate int.

    Each entry's (priority, sequence) is one packed int key,
    [((priority - base) lsl 20) lor seq], so the heap compares single
    ints and picks the least of four children without a branch.  A key
    is exact while its priority lies within 2^42 ns (about 73 minutes)
    above [base] and its seq below 2^20.  A push that breaks either
    rebases: the queue moves [base] so that every queued priority and
    the new one fit, and renumbers every queued entry, the slot's
    included, by rank among the queued entries of equal priority.  The
    pop order is unchanged by it.

    The sequence number, assigned at push, makes extraction FIFO among
    equal priorities, which keeps the event loop deterministic: two
    events scheduled for the same instant fire in scheduling order.
    Priorities are non-negative: a push below the last popped priority
    (or below 0) is clamped up to it, i.e. nothing can be scheduled into
    the already-delivered past.  A popped value is unreachable from the
    queue at once. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills vacated value cells; it is never returned. *)

val span : int
(** 2^42: queued priorities must lie within [span] of each other (the
    engine's dates are ns, so about 73 minutes). *)

val push : 'a t -> prio:int -> tag:int -> 'a -> unit
(** Inserts with the next sequence number.  Raises [Invalid_argument],
    queueing nothing, when the (clamped) priority lies 2^42 ns or more
    from a queued one, or when 2^20 queued entries share one priority:
    the span bound. *)

val min_prio : 'a t -> int
(** Priority of the minimum without removing it; -1 when empty. *)

val pop_value : 'a t -> 'a
(** Removes the minimum and returns its value, allocating nothing; read
    its priority with {!min_prio} first.  Raises [Invalid_argument] when
    the queue is empty. *)

val popped_tag : 'a t -> int
(** The tag pushed with the value the last {!pop_value} returned; 0
    before any pop. *)

val size : 'a t -> int
