(** Global metrics registry: named counters, gauges and histograms with a
    single snapshot/reset surface.

    Every {!Engine.t} owns one registry ({!Engine.metrics}), so metric
    lifetime is the engine's lifetime — no cross-run accumulation, no
    module-global state.  Hot paths hold on to the {!counter} or
    {!histogram} handle returned at registration and bump it directly; the
    name table is only consulted at registration and snapshot time.

    Three metric flavours:
    - counters: monotonically increasing ints, zeroed by {!reset};
    - gauges: probes ({!gauge_probe}) read lazily at snapshot time, which
      is how existing mutable counters (e.g. a namespace's datapath
      counters) are exported without double accounting;
    - histograms: bounded-error streaming {!Hdr.t} sketches — O(1) adds
      with no per-sample retention, exact count/total/min/max, and
      percentiles within the sketch's error bound (1 %), mergeable
      across shards and [--jobs] cells. *)

type t

type counter

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create.  Raises [Invalid_argument] if [name] is already a
    metric of another flavour. *)

val bump : counter -> unit
(** Adds one. *)

val counter_value : counter -> int

val gauge_probe : t -> string -> (unit -> float) -> unit
(** Registers (or replaces) a gauge whose value is read by calling the
    probe at snapshot time. *)

val histogram : t -> string -> Hdr.t
(** Get-or-create a streaming histogram registered under [name]. *)

type value =
  | Counter of int
  | Gauge of float
  | Summary of {
      count : int;
      total : float;  (** Exact. *)
      mean : float;   (** Exact. *)
      p50 : float;
      p90 : float;
      p99 : float;
      p999 : float;   (** p50/p90/p99/p99.9 within the sketch error. *)
      vmin : float;   (** Exact. *)
      vmax : float;   (** Exact. *)
    }  (** Histogram digest; all floats 0 when [count = 0]. *)

val snapshot : t -> (string * value) list
(** All metrics, sorted by name; probes are evaluated now. *)

val find : t -> string -> value option

val reset : t -> unit
(** Counters to 0, histograms emptied.  Probes are untouched (they
    re-read their source).  Handles stay valid. *)

val pp_text : Format.formatter -> t -> unit
(** One line per metric, sorted by name. *)

val to_json : t -> string
(** Snapshot as a JSON array of
    [{"name":…,"type":"counter"|"gauge"|"histogram",…}] objects. *)
