(** Chrome trace-event JSON export.

    Builds a trace loadable by Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing] from the simulator's observability sources: the
    engine {!Trace.t} ring (duration slices + instants), a {!Timeline.t}
    (CPU counter tracks, in cores), and {!Provenance.t} records (one
    slice per hop with queue/service attribution in the args).

    Each simulated entity maps to one trace "process" allocated with
    {!process}; sim-time nanoseconds are emitted as the format's
    microsecond [ts] with 3 decimals, so nothing is rounded away.  Every
    event is on its process's thread 0. *)

type t

val create : unit -> t

val process : t -> name:string -> int
(** Allocate a process id and emit its [process_name] metadata. *)

val span :
  t -> pid:int -> cat:string -> name:string ->
  start_ns:Time.ns -> end_ns:Time.ns -> (string * string) list -> unit
(** Emit a B/E pair.  The args list holds (key, raw-JSON-value) pairs
    attached to the begin event. *)

val instant :
  t -> pid:int -> cat:string -> name:string -> ts:Time.ns ->
  (string * string) list -> unit

val counter :
  t -> pid:int -> name:string -> ts:Time.ns -> (string * string) list -> unit

val add_trace : t -> pid:int -> Trace.t -> unit
(** Replay a trace ring: labeled-job spans become duration slices,
    instants become 'i' events. *)

val add_timeline : t -> pid:int -> Timeline.t -> unit
(** One [cpu.<entity>] counter track per entity, one series per CPU
    category, in cores (busy-ns delta over the sampling period). *)

val add_provenance : t -> pid:int -> Provenance.entry list -> unit
(** One slice per hop, cat ["hop"], with [queue_ns]/[service_ns] args. *)

val event_count : t -> int

val to_string : t -> string
(** The complete JSON document. *)

val to_file : t -> string -> unit
