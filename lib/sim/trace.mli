(** Low-overhead event tracing: one fixed-layout binary ring per tracer.

    A trace is a fixed-capacity ring of timestamped events: span
    begin/end pairs bracket an activity (an engine event class, an
    experiment phase) and instants mark point occurrences (a packet
    crossing a hop, a drop).  When the ring is full its oldest events
    are overwritten, so a tracer can stay installed for a whole run at
    bounded memory; {!dropped} says how much history was lost.

    Recording is O(1) and allocation-free: an event is two native-int
    stores into a preallocated Bigarray (timestamp + a packed
    kind/cat/name word) plus a string slot for the arg.  Category and
    subject strings are interned once per trace into bounded pools; hot
    paths can pre-intern with {!intern_cat}/{!intern_name} and record
    through {!record_i} without even the hash lookup on the category.

    Readers ({!iter}, {!events}, {!by_name}, {!to_json} and the
    exporters) walk the ring from the oldest retained event to the
    newest, i.e. in recording order, which the engine clock keeps
    non-decreasing in [ts].  Each engine owns its tracer; a sharded run
    gives every shard its own engine, hence its own ring.

    Subsystems reach their tracer through {!Engine.tracer}, which is
    [None] unless one was installed — the disabled path is a single
    option check. *)

type t

type kind = Span_begin | Span_end | Instant

type event = {
  ts : Time.ns;    (** Simulation date of the event. *)
  kind : kind;
  cat : string;    (** Coarse category, e.g. ["hop"], ["pkt"], ["engine"]. *)
  name : string;   (** Subject, e.g. a device or event-class name. *)
  arg : string;    (** Free-form detail; [""] when none. *)
}

val max_capacity : int
(** The largest capacity {!create} accepts: 2{^24} events (24 bytes
    each, 384 MiB of ring). *)

val create : ?capacity:int -> unit -> t
(** A ring of at most [capacity] events (default 8192).  [capacity] is
    rounded up to a power of two so the ring index is a mask rather than
    a division.  Raises [Invalid_argument] when [capacity <= 0] or
    [capacity > max_capacity]. *)

val instant :
  t -> ts:Time.ns -> cat:string -> name:string -> ?arg:string -> unit -> unit

val intern_cat : t -> string -> int
(** Interns a category (≤ 4096 distinct per trace; raises
    [Invalid_argument] beyond).  The returned id is stable for the
    trace's lifetime. *)

val intern_name : t -> string -> int
(** Interns a subject name (≤ 65536 distinct per trace). *)

val record_i :
  t -> ts:Time.ns -> kind -> cat:int -> name:int -> arg:string -> unit
(** The pre-interned hot entry: no optional arguments, no lookups, no
    allocation.  [cat]/[name] must come from {!intern_cat} /
    {!intern_name} on the same trace. *)

val events : t -> event list
(** Retained events, oldest first. *)

val iter : t -> (event -> unit) -> unit
(** [iter t f] applies [f] to every retained event, oldest first,
    without materialising a list.  Exporters and dumpers should prefer
    this over {!events}. *)

val recorded : t -> int
(** Total events ever recorded (monotonic). *)

val dropped : t -> int
(** Events lost to ring wrap-around. *)

val capacity : t -> int
(** Retained-event bound: the requested capacity rounded up to a power
    of two. *)

val by_name : t -> (string * int) list
(** Retained-event counts aggregated by [(cat, name)], rendered as
    ["cat:name"], sorted by name.  The per-hop summary view. *)

val pp_text : ?limit:int -> Format.formatter -> t -> unit
(** Human-readable dump: one line per event, oldest first; at most
    [limit] events (default: all retained), preceded by a header line. *)

val to_json : t -> string
(** The whole ring as a JSON object:
    [{"capacity":…,"recorded":…,"dropped":…,"events":[…]}]. *)

val json_escape : string -> string
(** Escapes a string for embedding in a JSON string literal.  Shared by
    the other hand-rolled JSON emitters in this tree ({!Metrics.to_json},
    the experiment drivers). *)
