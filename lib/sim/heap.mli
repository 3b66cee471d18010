(** The engine's event queue: a min-priority queue keyed by
    [(priority, sequence)].

    One implicit 4-ary heap; a push and a pop each cost O(log n) sift
    steps over flat int triples.  Each entry carries an int tag beside
    its value (the engine keeps its event's label id there).  Once its
    arrays are sized, neither push nor {!pop_value} allocates, and
    neither does the tag: it is stored and read back as an immediate
    int.

    The sequence number, assigned at push, makes extraction FIFO among
    equal priorities, which keeps the event loop deterministic: two
    events scheduled for the same instant fire in scheduling order.
    Priorities are non-negative: a push below the last popped priority
    (or below 0) is clamped up to it, i.e. nothing can be scheduled into
    the already-delivered past.  A popped or cleared value is
    unreachable from the queue at once. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills vacated value cells; it is never returned. *)

val push : 'a t -> prio:int -> tag:int -> 'a -> unit
(** Inserts with the next sequence number. *)

val min_prio : 'a t -> int
(** Priority of the minimum without removing it; -1 when empty. *)

val pop_value : 'a t -> 'a
(** Removes the minimum and returns its value, allocating nothing; read
    its priority with {!min_prio} first.  Raises [Invalid_argument] when
    the queue is empty. *)

val popped_tag : 'a t -> int
(** The tag pushed with the value the last {!pop_value} or {!pop}
    returned; 0 before any pop. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum [(priority, value)]. *)

val size : 'a t -> int

val clear : 'a t -> unit
(** Drops every entry and resets the clamp floor to 0. *)
