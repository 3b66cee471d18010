(* Helpers shared by the test executables. *)

(* One netperf point: TCP_STREAM throughput and UDP_RR latency at one
   message size, each measured on a fresh testbed. *)
type netperf_point = {
  size : int;
  mbps : float;
  lat_mean_us : float;
  lat_sd_us : float;
}

(* The quick NAT netperf sweep at 64 B and 1024 B, one cell per size
   fanned through [Par.map], as the figures run theirs. *)
let nat_netperf_sweep () =
  let open Nest_experiments in
  let module Netperf = Nest_workloads.Netperf in
  let module Stats = Nest_sim.Stats in
  let d = Exp_util.durations ~quick:true in
  let endpoints () =
    let tb, site = Exp_util.deploy_single_sync ~mode:`Nat ~port:7000 () in
    (tb, Nest_workloads.App.of_single tb site)
  in
  Exp_util.Par.map
    (fun size ->
      let tb1, ep1 = endpoints () in
      let stream =
        Netperf.tcp_stream tb1 ep1 ~msg_size:size ~warmup:d.Exp_util.warmup
          ~duration:d.Exp_util.measure ()
      in
      let tb2, ep2 = endpoints () in
      let rr =
        Netperf.udp_rr tb2 ep2 ~msg_size:size ~warmup:d.Exp_util.warmup
          ~duration:d.Exp_util.measure ()
      in
      { size;
        mbps = stream.Netperf.mbps;
        lat_mean_us = Stats.mean rr.Netperf.latency;
        lat_sd_us = Stats.stddev rr.Netperf.latency })
    [ 64; 1024 ]

(* Removes and returns the queue's minimum [(priority, value)], the way
   the engine pops it. *)
let heap_pop h =
  let open Nest_sim in
  if Heap.size h = 0 then None
  else
    let p = Heap.min_prio h in
    Some (p, Heap.pop_value h)

(* [contains_seq hops expected]: [expected] appears in [hops] in order,
   not necessarily contiguously. *)
let contains_seq hops expected =
  let rec go hops expected =
    match (hops, expected) with
    | _, [] -> true
    | [], _ -> false
    | h :: hs, e :: es -> if String.equal h e then go hs es else go hs expected
  in
  go hops expected

(* One pinned reading per build profile.  Under [dev] modules compile
   -opaque: nothing inlines across modules and floats box at module
   boundaries, so an exact allocation count reads higher there. *)
let per_profile ~release ~dev =
  if String.equal Build_profile.name "dev" then dev else release

(* A firewall rule dropping every packet from [src_subnet] on [hook]. *)
let drop_from nf ~hook ~src_subnet =
  let open Nest_net in
  Netfilter.append nf hook
    { Netfilter.matches =
        (fun ~in_dev:_ ~out_dev:_ p -> Ipv4.in_subnet src_subnet p.Packet.src);
      action = (fun _ -> Netfilter.Drop) }
