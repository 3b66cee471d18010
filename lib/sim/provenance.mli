(** Per-packet latency provenance.

    A provenance record rides (optionally) on a frame/packet through the
    datapath.  Every hop that services the packet appends one entry with
    three timestamps: when the packet was handed to the hop, when the
    hop's execution context actually started working on it, and when
    service completed.  The end-to-end latency of a linear path then
    decomposes exactly into per-hop queueing ([start - enqueue]) and
    service ([end - start]) time.

    Records are pay-for-use: a packet without one costs the datapath
    nothing (see [Hop.service_prov] in [nest_net]).  At fan-out points
    (bridge floods, Hostlo reflection, multi-remote vxlan) the record is
    {!branch}ed so each copy accumulates only its own path. *)

type entry = {
  hop : string;
  enqueue_ns : Time.ns;  (** handed to the hop *)
  start_ns : Time.ns;    (** service began ([>= enqueue_ns]: queueing) *)
  end_ns : Time.ns;      (** service completed *)
}

type t

val set_sampling : int -> unit
(** [set_sampling n] asks producers to mint one provenance record per
    [n] eligible packets (clamped to [>= 1]; default 1 = every packet).
    Consumed by [Stack.fresh_prov] in [nest_net] through a deterministic
    per-namespace counter, so sampled runs remain bit-reproducible. *)

val sampling : unit -> int
(** Current 1-in-N sampling period. *)

val create : unit -> t

val add :
  t -> hop:string -> enqueue_ns:Time.ns -> start_ns:Time.ns ->
  end_ns:Time.ns -> unit

val mark_after : t -> hop:string -> unit
(** Append a zero-duration marker (e.g. a NAT rewrite) pinned to the
    completion date of the previous entry; needs no clock because a
    rewrite runs inside that hop's continuation. *)

val branch : t -> t
(** Fork at a fan-out point: the branch shares the (immutable) prefix
    recorded so far and accumulates its own suffix. *)

val entries : t -> entry list
(** Oldest first. *)

val length : t -> int
val is_empty : t -> bool

val queue_ns : entry -> Time.ns
val service_ns : entry -> Time.ns

val attributed_ns : t -> Time.ns
(** Sum over entries of queue + service time. *)

val total_ns : t -> Time.ns
(** First enqueue to last completion.  On a linear path with contiguous
    hops this equals {!attributed_ns}; any difference is unattributed
    inter-hop delay. *)

val gap_ns : t -> Time.ns
(** [total_ns - attributed_ns]. *)

val hops : t -> string list
(** Hop names, oldest first. *)

val pp : Format.formatter -> t -> unit
