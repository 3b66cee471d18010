(** Netperf micro-benchmarks: Figs. 2, 4 and 10. *)

type point = {
  size : int;
  mbps : float;
  lat_mean_us : float;
  lat_sd_us : float;
}

val sweep_single :
  quick:bool -> mode:Nestfusion.Modes.single -> sizes:int list -> point list
(** One fresh testbed per mode, throughput and UDP_RR latency per
    message size. *)

val fig2 : quick:bool -> unit
(** NAT vs NoCont at 1280 B — the motivation excerpt. *)

val fig4 : quick:bool -> unit
(** Full BrFusion sweep with the paper's headline checks. *)

val fig10 : quick:bool -> unit
(** Hostlo overhead sweep across the four intra-pod modes. *)
