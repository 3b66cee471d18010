(** A costed processing hop: the association of an execution context with a
    per-packet cost model.

    Every device crossing in the simulator is a [Hop.t]: servicing a frame
    occupies the hop's {!Nest_sim.Exec.t} for [fixed_ns + per_byte_ns × len]
    nanoseconds, charging the context's CPU account.  Throughput limits and
    queueing latency both emerge from this single mechanism.

    Hops are also the unit of latency attribution: {!service_prov} stamps
    an optional {!Nest_sim.Provenance.t} with (enqueue, start, end) for the
    crossing and feeds the per-hop [hop.<name>.queue_ns] /
    [hop.<name>.service_ns] histograms in the engine's metrics registry. *)

type t = {
  exec : Nest_sim.Exec.t;
  fixed_ns : int;
  per_byte_ns : float;
  lead_ns : int;
      (** How long before a service call the packet was handed off (a
          virtio kick delay): recorded as queueing on this hop. *)
  tail_ns : int;
      (** Delay after the CPU finish that the record attributes to this
          hop without charging CPU (an interrupt-notify delay). *)
  mutable hop_name : string;
      (** [""] = anonymous: attribution falls back to the exec name. *)
  mutable hists : (Nest_sim.Hdr.t * Nest_sim.Hdr.t) option;
      (** Lazily resolved (queue_ns, service_ns) histograms. *)
}

val make :
  ?per_byte_ns:float ->
  ?lead_ns:int ->
  ?tail_ns:int ->
  ?name:string ->
  Nest_sim.Exec.t ->
  fixed_ns:int ->
  t

val name : t -> string
(** The attribution name: [hop_name] if set, else the exec's name. *)

val set_name : t -> string -> unit
(** Also invalidates the cached histograms. *)

val cost_ns : t -> bytes:int -> int

val service : t -> bytes:int -> (unit -> unit) -> unit
(** [service t ~bytes k] queues the work on the hop's context and runs [k]
    on completion. *)

val service_prov :
  ?prov:Nest_sim.Provenance.t ->
  t ->
  extra_ns:int ->
  bytes:int ->
  (unit -> unit) ->
  unit
(** Timed {!service}: [extra_ns] adds cost outside the hop's rate
    (syscall overhead, NAT surcharges).  With [prov = None] this is
    exactly [service] plus [extra_ns] of cost — no allocation, no clock
    reads.  With a record, the crossing is stamped enqueued [lead_ns]
    before the call and completed [tail_ns] after the CPU finish (the
    continuation still runs at CPU finish; callers scheduling a tail
    delay themselves get it attributed here), and the hop's histograms
    are fed. *)

val free : Nest_sim.Engine.t -> t
(** A zero-cost hop on a private context — useful in unit tests. *)
