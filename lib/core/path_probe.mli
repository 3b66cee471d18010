(** Datapath introspection: observe the exact hop sequence a packet
    crosses between two namespaces, with each hop's timing.  The path is
    the packet's latency-provenance record ({!Nest_sim.Provenance}), the
    one per-packet path record in the datapath; it branches at fan-out
    points, so it names only the hops the measured copy took.
    Integration tests use this to assert that each deployment mode
    produces the hop chain of Fig. 1 — e.g. that BrFusion really removed
    the in-VM bridge and NAT. *)

open Nest_net

val udp_timed_path :
  src:Stack.ns ->
  dst:Stack.ns ->
  dst_addr:Ipv4.t ->
  port:int ->
  k:(Nest_sim.Provenance.entry list -> unit) ->
  unit ->
  unit
(** Sends a 64 B warmup datagram (resolving ARP so the measured path has
    no cold-start artifacts) followed by a measured one, and hands [k]
    the provenance entries recorded for the second — the datagram's
    one-way latency decomposed into per-hop queue/service time.  Restores
    provenance and observer state afterwards.  Drive the engine until
    [k] fires.  [List.map (fun e -> e.Nest_sim.Provenance.hop)] reads
    the hop names alone. *)

val pp_hops : Format.formatter -> string list -> unit
