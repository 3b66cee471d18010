(* Fleet-scale trace replay under open-loop load.  See fig_fleet.mli.

   Every entry point reads one [scenario]: [build] validates the
   params, clamps the split, deploys every node, wires the ring, starts
   the generators and arms the churn; [play] runs it to its horizon;
   [tally] folds a node list's request books, latency, pods, scale
   events and availability burn, and [per_mode] splits the fleet for
   the per-mode tables.

   Determinism across (shards, domains) splits rests on four
   disciplines [build] follows:
   - every node, link-direction and churn random stream is keyed on the
     root seed plus a fixed index ([node_seed]), never drawn from a
     sub-engine root, which depends on placement;
   - all inter-node traffic crosses Wire relays (mailboxes with delivery
     dates fixed at send time), even when both ends share a shard;
   - setup work is scheduled, never driven, per node: the sharded loop
     runs once over each phase, so no node's clock outruns another's
     during deployment;
   - the live trace replay (placement, lifetimes, departures) runs
     entirely in events on the control-plane shard (shard 0), the only
     mutator of scheduler state during the measurement window, so the
     churn outcome is one shard's deterministic event order regardless
     of how many domains pump the fleet. *)

open Nestfusion
module Sharded = Nest_sim.Sharded
module Time = Nest_sim.Time
module Prng = Nest_sim.Prng
module Engine = Nest_sim.Engine
module Slo = Nest_sim.Slo
module Hdr = Nest_sim.Hdr
module Wire = Nest_net.Wire
module Lg = Nest_loadgen.Loadgen
module Admission = Nest_loadgen.Admission
module Arrival = Nest_loadgen.Arrival
module Size_dist = Nest_loadgen.Size_dist
module Trace = Nest_traces.Trace
module Node = Nest_orch.Node
module Index = Nest_orch.Scheduler.Index
module Autoscaler = Nest_orch.Autoscaler
module Netperf = Nest_workloads.Netperf

let golden = 0x9E3779B97F4A7C15L
let node_seed seed i = Int64.add seed (Int64.mul golden (Int64.of_int (i + 1)))

let service_port = 5001
let gw_client_port = 7000
let gw_server_port = 7100
let default_link_latency = Time.us 50
let slo_window = Time.ms 100

type admission_policy = [ `Fixed | `Burn | `Codel ]

let admission_to_string = function
  | `Fixed -> "fixed"
  | `Burn -> "burn"
  | `Codel -> "codel"

let admission_of_string = function
  | "fixed" -> Some `Fixed
  | "burn" -> Some `Burn
  | "codel" -> Some `Codel
  | _ -> None

type params = {
  nodes : int;
  pods : int;
  rate : float;
  arrival : [ `Poisson | `Constant ];
  profile : Wire.profile option;
  fault_rate : float;
  standby : int;
  admission : admission_policy;
  autoscale : bool;
  service_us : float;
  pods_max : int;
  seed : int64;
}

let default_params =
  { nodes = 8; pods = 200; rate = 2000.0; arrival = `Poisson; profile = None;
    fault_rate = 0.0; standby = 0; admission = `Fixed; autoscale = false;
    service_us = 0.25; pods_max = 4; seed = 42L }

(* Resource shape one serving pod replica plans against; the per-node
   pool ceiling comes from [Autopilot.replica_headroom] with this shape
   at setup time — a static plan, because a runtime [Node.reserve] from
   a generator shard would race the churn replay on shard 0 and break
   digest byte-identity. *)
let replica_cpu = 0.5
let replica_mem = 0.25 (* GB — Node capacities are vcpus / GB *)

(* Deployment mode of node i: the fleet is heterogeneous round-robin.
   NAT and BrFusion nodes serve over the wire ring; Hostlo nodes are
   intra-pod pairs serving over the multiplexed host loopback. *)
let mode_of_ix i =
  match i mod 3 with 0 -> "nat" | 1 -> "brfusion" | _ -> "hostlo"

let is_wire_served m = not (String.equal m "hostlo")

(* Where a deployed node's service listens: a wire-served node's site,
   which its ring predecessor's generator drives through a relay, or a
   Hostlo pair, which the node's own generator drives. *)
type site = Single of Deploy.server_site | Pair of Deploy.pair_site

type node = {
  f_ix : int;
  f_mode : string;
  (* Mode of the service this node's generator drives: a wire-served
     node drives its ring peer's service, a Hostlo node its own pair —
     latency percentiles are attributed to the mode that served them. *)
  f_serves : string;
  f_gen : Lg.t;
  f_slo : Slo.t;                (* client-side, on the generator *)
  f_pool : Netperf.echo_pool;   (* serving side, on this node *)
  f_scale_events : unit -> (Time.ns * int) list;
      (* the pool autoscaler's trajectory; [] without autoscaling *)
}

type churn = {
  mutable ch_placed : int;
  mutable ch_unschedulable : int;
  mutable ch_departed : int;
}

type scenario = {
  sc_sd : Sharded.t;
  sc_nodes : node list;
  sc_sched : Node.t list;       (* every scheduler node, in fleet order *)
  sc_shards : int;              (* clamped to [1, nodes] *)
  sc_domains : int;             (* clamped to [1, shards] *)
  sc_horizon : Time.ns;
  sc_flaps : int;
  sc_churn : churn;
}

(* Serving side of one node: a pod pool behind the service socket, a
   server-side SLO monitor fed queueing + service latency, and — when
   autoscaling is on — a controller driving the pool from that monitor's
   burn.  Everything is created inside the deployment callback, on the
   node's own engine; the pool ceiling is planned statically from the
   node's remaining capacity (Autopilot placement arithmetic), never
   reserved at runtime.  Returns [site] with the pool and the
   scale-event reader. *)
let install_serving site ~ix engine ~p ~start ~stop ~ns ~port ~new_exec
    ~cap_node =
  let service_cost = int_of_float (p.service_us *. 1000.0) in
  let pool_max =
    max 1
      (min p.pods_max
         (1 + Autopilot.replica_headroom cap_node ~cpu:replica_cpu
                ~mem:replica_mem))
  in
  let standby = max 0 (min p.standby (pool_max - 1)) in
  (* The serving SLO judges the node's own queueing: burn as soon as
     p99 of (queueing + service) exceeds twice the service time — one
     queued request behind every request in service.  The trigger is
     deliberately tighter than the client's end-to-end budget so the
     autoscaler adds capacity before admission has to shed: scaling
     absorbs what headroom allows, shedding handles the rest. *)
  let srv_slo =
    Slo.create ~start
      ~specs:
        [ Slo.latency_p ~window:slo_window ~p:99.0
            ~limit_us:(Float.max 1000.0 (2.0 *. p.service_us)) () ]
      ~stop engine
  in
  let pool =
    Netperf.udp_echo_pool ~ns ~port ~new_exec ~service_cost ~max:pool_max
      ~standby ~slo:srv_slo ()
  in
  if p.autoscale then
    let a =
      Autoscaler.create ~engine
        ~label:(Printf.sprintf "n%d:scaler" ix)
        ~min:1 ~max:pool_max ~window:slo_window
        ~burn_source:(fun () -> Slo.worst_last_burn srv_slo)
        ~apply:pool.Netperf.epool_set_active ~start ~stop ()
    in
    (site, pool, fun () -> Autoscaler.events a)
  else (site, pool, fun () -> [])

(* Deploys every node and its serving side, runs the deployment phase
   to 1 s, and returns each node's site with its serving side; a node
   whose deployment never finished is an error. *)
let deploy sd tbs ~p ~start ~stop =
  let slots = Array.make (Array.length tbs) None in
  Array.iteri
    (fun i tb ->
      let name = Printf.sprintf "n%d:pod" i in
      let mode = mode_of_ix i in
      if is_wire_served mode then
        Deploy.deploy_single tb
          ~mode:(if String.equal mode "nat" then `Nat else `Brfusion)
          ~name ~entity:"server" ~port:service_port
          ~k:(fun s ->
            slots.(i) <-
              Some
                (install_serving (Single s) ~ix:i tb.Testbed.engine ~p
                   ~start ~stop ~ns:s.Deploy.site_ns ~port:s.Deploy.site_port
                   ~new_exec:s.Deploy.site_new_exec
                   ~cap_node:(List.hd tb.Testbed.nodes)))
      else
        Deploy.deploy_pair ~standby:p.standby tb ~mode:`Hostlo ~name
          ~a_entity:"client" ~b_entity:"server" ~port:service_port
          ~k:(fun pair ->
            (* The server fraction (b) lives on the pair's second VM. *)
            let cap_node =
              match tb.Testbed.nodes with [ _; b ] -> b | l -> List.hd l
            in
            slots.(i) <-
              Some
                (install_serving (Pair pair) ~ix:i tb.Testbed.engine ~p
                   ~start ~stop ~ns:pair.Deploy.b_ns ~port:pair.Deploy.b_port
                   ~new_exec:pair.Deploy.b_new_exec ~cap_node)))
    tbs;
  Sharded.run ~until:(Time.sec 1) sd;
  Array.mapi
    (fun i -> function
      | Some d -> d
      | None -> failwith (Printf.sprintf "fig_fleet: node %d deployment stuck" i))
    slots

(* Ring over the wire-served nodes only, given as (node index, site) in
   fleet order.  Each direction's impairment stream is keyed on (root
   seed, ring position, direction); flap plans schedule set_down events
   on that direction's source shard.  Returns the number of planned
   flaps (digest material). *)
let wire_ring sd tbs ring ~shards ~p ~start ~stop =
  let k = Array.length ring in
  let flaps = ref 0 in
  let latency =
    match p.profile with
    | None -> default_link_latency
    | Some pr -> pr.Wire.p_delay
  in
  Array.iteri
    (fun j (i, _) ->
      let peer, site = ring.((j + 1) mod k) in
      let dir d =
        (* One impair per direction even without a profile: the flap
           plan needs the down flag. *)
        let rng = Prng.create (node_seed p.seed (40000 + (2 * j) + d)) in
        match p.profile with
        | Some pr when p.fault_rate > 0.0 || pr.Wire.p_loss > 0.0
                       || pr.Wire.p_jitter > 0 ->
          Some (Wire.impair ~profile:pr ~rng ())
        | Some _ | None ->
          if p.fault_rate > 0.0 then Some (Wire.impair ~rng ()) else None
      in
      let fwd_impair = dir 0 and rev_impair = dir 1 in
      (* Flap plan: a per-direction draw at setup decides whether this
         direction goes down once during the window; the flap events run
         on the impair's owner shard. *)
      if p.fault_rate > 0.0 then begin
        let plan d im owner =
          match im with
          | None -> ()
          | Some im ->
            let frng = Prng.create (node_seed p.seed (50000 + (2 * j) + d)) in
            if Prng.float frng < p.fault_rate then begin
              incr flaps;
              let window = stop - start in
              let down_at = start + Prng.int frng (max 1 (window / 2)) in
              let up_at = down_at + (window / 5) in
              let e = Sharded.engine sd owner in
              Engine.schedule_at e ~label:"fleet:flap-down" ~at:down_at
                (fun () -> Wire.set_down im true);
              Engine.schedule_at e ~label:"fleet:flap-up" ~at:up_at
                (fun () -> Wire.set_down im false)
            end
        in
        plan 0 fwd_impair (i mod shards);
        plan 1 rev_impair (peer mod shards)
      end;
      Wire.udp_relay sd
        ~client_side:(i mod shards, Nest_virt.Host.ns tbs.(i).Testbed.host)
        ~server_side:
          (peer mod shards, Nest_virt.Host.ns tbs.(peer).Testbed.host)
        ~client_port:gw_client_port ~server_port:gw_server_port
        ~target:(site.Deploy.site_addr, site.Deploy.site_port)
        ~latency ?fwd_impair ?rev_impair ())
    ring;
  !flaps

(* Each node's goodput SLO floor: a fifth of its share of the rate. *)
let goodput_floor_per_s p = 0.2 *. (p.rate /. float_of_int p.nodes)

(* Per-node open-loop generator + SLO monitor, both on the node's own
   engine.  Latency ceilings scale with the link physics [prof_ns] so a
   WAN fleet is judged against WAN physics.  Returns the fleet's nodes,
   in order. *)
let start_generators tbs deployed ~serves ~p ~prof_ns ~timeout ~start ~stop
    =
  let per_node_rate = p.rate /. float_of_int (Array.length tbs) in
  (* The latency budget covers both the wire (profile physics) and the
     service itself: a 2 ms service can never meet a 2 ms end-to-end
     ceiling, and a ceiling below the service time pins a Burn policy at
     its floor forever. *)
  let limit_us =
    Float.max
      (Float.max 2000.0 (Time.to_us_f (6 * prof_ns)))
      (8.0 *. p.service_us)
  in
  let gw = Nest_net.Ipv4.of_string "192.168.100.1" in
  List.init (Array.length tbs) (fun i ->
      let site, pool, scale_events = deployed.(i) in
      let tb = tbs.(i) in
      let engine = tb.Testbed.engine in
      let slo =
        Slo.create ~start
          ~specs:
            [ Slo.availability ~window:slo_window ~target:0.9 ();
              Slo.latency_p ~window:slo_window ~p:99.0 ~limit_us ();
              Slo.goodput ~window:slo_window
                ~floor_per_s:(goodput_floor_per_s p) () ]
          ~stop engine
      in
      let arrival =
        let rng = Prng.create (node_seed p.seed (20000 + i)) in
        match p.arrival with
        | `Poisson -> Arrival.poisson ~rng ~rate_per_s:per_node_rate
        | `Constant -> Arrival.constant ~rate_per_s:per_node_rate
      in
      let sizes = Size_dist.Pareto { shape = 1.2; lo = 64; hi = 1400 } in
      let rng = Prng.create (node_seed p.seed (10000 + i)) in
      (* Client-side admission: the Burn policy protects this node's own
         latency objective — shedding on availability burn would be
         self-defeating (sheds burn availability, which sheds more).
         The burn source reads the node-local monitor, updated only in
         this engine's window ticks, so decisions stay shard-local. *)
      let admission =
        match p.admission with
        | `Fixed -> None
        | `Burn ->
          Some (Admission.burn ~floor:1 ~ceiling:64 ~window:slo_window ())
        | `Codel ->
          Some
            (Admission.codel ~target_us:limit_us ~interval:slo_window
               ~ceiling:64 ())
      in
      let burn_source =
        match p.admission with
        | `Burn ->
          Some
            (fun () ->
              Option.value (Slo.last_burn slo ~name:"lat_p99") ~default:0.0)
        | `Fixed | `Codel -> None
      in
      (* [target] runs per request: its answer is built once. *)
      let gen =
        match site with
        | Single _ ->
          let target = Some (gw, gw_client_port) in
          Lg.udp ~engine ~arrival ~sizes ~rng ?admission ?burn_source
            ~timeout ~slo ~gen_id:i ~ns:tb.Testbed.client_ns
            ~exec:
              (Testbed.client_app_exec tb
                 ~name:(Printf.sprintf "n%d:loadgen" i))
            ~target:(fun () -> target)
            ~start ~stop ()
        | Pair pair ->
          let target = Some (pair.Deploy.b_addr, pair.Deploy.b_port) in
          Lg.udp ~engine ~arrival ~sizes ~rng ?admission ?burn_source
            ~timeout ~slo ~gen_id:i ~ns:pair.Deploy.a_ns
            ~exec:pair.Deploy.a_exec
            ~target:(fun () -> target)
            ~start ~stop ()
      in
      { f_ix = i; f_mode = mode_of_ix i; f_serves = serves.(i); f_gen = gen;
        f_slo = slo; f_pool = pool; f_scale_events = scale_events })

(* Live trace replay: the first [pods] pods of a synthetic cluster
   trace, their relative demands scaled so the whole population wants
   ~1.5x the fleet's schedulable capacity (departures make room; the
   overflow is what exercises unschedulable accounting), replayed as a
   continuous arrival stream through most-requested placement.  A trace
   whose first [churn_max_users] users hold fewer pods is replayed
   whole. *)
let churn_max_users = 1 lsl 20

let arm_churn sd all_nodes ~p ~start ~stop =
  let ctl = Sharded.engine sd 0 in
  let demands =
    Array.map
      (fun pod -> (Trace.pod_cpu pod, Trace.pod_mem pod))
      (Nest_traces.Trace_gen.first_pods ~seed:p.seed
         ~max_users:churn_max_users p.pods)
  in
  let cap_cpu =
    List.fold_left (fun a n -> a +. Node.cpu_capacity n) 0.0 all_nodes
  in
  let cap_mem =
    List.fold_left (fun a n -> a +. Node.mem_capacity n) 0.0 all_nodes
  in
  let dem_cpu = Array.fold_left (fun a (c, _) -> a +. c) 0.0 demands in
  let dem_mem = Array.fold_left (fun a (_, m) -> a +. m) 0.0 demands in
  let scale_cpu = if dem_cpu > 0.0 then 1.5 *. cap_cpu /. dem_cpu else 0.0 in
  let scale_mem = if dem_mem > 0.0 then 1.5 *. cap_mem /. dem_mem else 0.0 in
  let ch = { ch_placed = 0; ch_unschedulable = 0; ch_departed = 0 } in
  (* Placements and departures go through the exact index: the node
     [Scheduler.most_requested all_nodes] would pick, without a fold
     over the whole fleet per arrival. *)
  let index = Index.create all_nodes in
  let crng = Prng.create (node_seed p.seed 30000) in
  let window = stop - start in
  let npods = Array.length demands in
  let due i = start + ((i + 1) * window / max 1 npods) in
  let departure_lbl = Engine.label ctl "fleet:pod-departure" in
  let arrival_lbl = Engine.label ctl "fleet:pod-arrival" in
  (* Pods [0, next) have arrived.  One arrival event is pending at a
     time, armed at the next pod's due date, so the queue holds no
     entry per pod still to come. *)
  let next = ref 0 in
  let rec place_due () =
    let now = Engine.now ctl in
    while !next < npods && due !next <= now do
      let c, m = demands.(!next) in
      incr next;
      let cpu = c *. scale_cpu and mem = m *. scale_mem in
      (* Drawn for every pod in trace order, placed or not, so a pod's
         lifetime never depends on placement. *)
      let lifetime =
        max 1
          (int_of_float
             (Nest_sim.Dist.exponential crng
                ~mean:(float_of_int window /. 3.0)))
      in
      match Index.place index ~cpu ~mem with
      | None -> ch.ch_unschedulable <- ch.ch_unschedulable + 1
      | Some pos ->
        ch.ch_placed <- ch.ch_placed + 1;
        Engine.schedule_labeled ctl departure_lbl ~at:(now + lifetime)
          (fun () ->
            (* At one instant, arrivals go before departures: a pod
               due now is placed before this one is released. *)
            place_due ();
            Index.release index pos ~cpu ~mem;
            ch.ch_departed <- ch.ch_departed + 1)
    done
  in
  let rec on_arrival () =
    place_due ();
    if !next < npods then
      Engine.schedule_labeled ctl arrival_lbl ~at:(due !next) on_arrival
  in
  if npods > 0 then
    Engine.schedule_labeled ctl arrival_lbl ~at:(due 0) on_arrival;
  ch

(* Every check is written so that NaN fails it: a float comparison
   with NaN is false, so each one states what a good value satisfies.
   The upper bounds keep a run finite: its cost grows with the offered
   arrivals (rate), the trace pods replayed, and the standby endpoints
   plugged.  At each bound, with the other fields at their defaults, a
   full (not [--quick]) run took 1.4 s (standby), 3.0 s (pods) and
   13 s (rate) on a 2-core host. *)
let max_rate = 1e7
let max_pods = 1_000_000

(* Every node is a full testbed: 16384 of them at the default load run
   in about 5 s and 0.7 GB. *)
let max_nodes = 16_384

let validate p =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if not (p.nodes > 0 && p.nodes <= max_nodes) then
    bad "nodes must be in [1, %d] (got %d)" max_nodes p.nodes
  else if not (p.pods >= 0 && p.pods <= max_pods) then
    bad "pods must be in [0, %d] (got %d)" max_pods p.pods
  else if not (p.rate > 0.0 && p.rate <= max_rate) then
    bad "rate must be in (0, %g] (got %g)" max_rate p.rate
  else if not (goodput_floor_per_s p > 0.0) then
    (* A denormal rate's floor underflows to 0, which [Slo] refuses. *)
    bad "rate %g is too small: its per-node goodput floor is 0" p.rate
  else if not (p.fault_rate >= 0.0 && p.fault_rate <= 1.0) then
    bad "fault-rate must be in [0,1] (got %g)" p.fault_rate
  else if not (p.standby >= 0 && p.standby <= Exp_util.max_standby) then
    bad "standby must be in [0, %d] (got %d)" Exp_util.max_standby p.standby
  else if
    (* [install_serving] charges [int_of_float (service_us *. 1000.)] ns:
       at least 1 ns, and no wrap to a negative cost. *)
    not (p.service_us *. 1000.0 >= 1.0
         && p.service_us *. 1000.0 < Float.of_int max_int)
  then
    bad "service-us must be in [0.001, %g) (got %g)"
      (Float.of_int max_int /. 1000.0) p.service_us
  else if not (p.pods_max >= 1) then
    bad "pods-max must be >= 1 (got %d)" p.pods_max
  else Ok ()

(* The one setup: everything is scheduled, nothing past the deployment
   phase has run yet. *)
let build ~p ~shards ~domains ~quick =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("fig_fleet: " ^ msg));
  let shards, domains = Exp_util.clamp_split ~nodes:p.nodes (shards, domains) in
  let d = Exp_util.durations ~quick in
  let start = Time.sec 1 + d.Exp_util.warmup in
  let stop = start + d.Exp_util.measure in
  let sd = Sharded.create ~seed:p.seed ~shards () in
  let tbs =
    Array.init p.nodes (fun i ->
        Testbed.create ~sharded:(sd, i mod shards)
          ~prefix:(Printf.sprintf "n%d:" i)
          ~rng:(Prng.create (node_seed p.seed i))
          ~num_vms:(if is_wire_served (mode_of_ix i) then 1 else 2)
          ())
  in
  let deployed = deploy sd tbs ~p ~start ~stop in
  let ring =
    let rec wired i =
      if i = p.nodes then []
      else
        match deployed.(i) with
        | Single s, _, _ -> (i, s) :: wired (i + 1)
        | Pair _, _, _ -> wired (i + 1)
    in
    Array.of_list (wired 0)
  in
  let serves = Array.init p.nodes mode_of_ix in
  Array.iteri
    (fun j (i, _) ->
      serves.(i) <- mode_of_ix (fst ring.((j + 1) mod Array.length ring)))
    ring;
  let flaps = wire_ring sd tbs ring ~shards ~p ~start ~stop in
  let prof_ns =
    match p.profile with
    | None -> default_link_latency
    | Some pr -> pr.Wire.p_delay + pr.Wire.p_jitter
  in
  (* The one request timeout.  The horizon lets every admitted request
     resolve — complete or hit it — so the digest never races the
     horizon. *)
  let timeout = max (Time.ms 100) (8 * prof_ns) in
  let nodes =
    start_generators tbs deployed ~serves ~p ~prof_ns ~timeout ~start ~stop
  in
  let sched = Array.fold_right (fun tb l -> tb.Testbed.nodes @ l) tbs [] in
  let churn = arm_churn sd sched ~p ~start ~stop in
  { sc_sd = sd; sc_nodes = nodes; sc_sched = sched; sc_shards = shards;
    sc_domains = domains; sc_horizon = stop + timeout + Time.ms 5;
    sc_flaps = flaps; sc_churn = churn }

let play sc =
  Sharded.run ~until:sc.sc_horizon ~domains:sc.sc_domains sc.sc_sd;
  sc

type tally = {
  t_offered : int;
  t_shed : int;
  t_lost : int;
  t_completed : int;
  t_latency : Hdr.t;            (* merged completed-RTT sketch *)
  t_pods : int;                 (* final active serving pods *)
  t_scale_events : int;
  t_avail_burn : float;         (* worst availability-window burn *)
}

let tally nodes =
  let latency = Hdr.create () in
  let off = ref 0 and shed = ref 0 and lost = ref 0 and comp = ref 0 in
  let pods = ref 0 and scale = ref 0 and avail = ref 0.0 in
  List.iter
    (fun n ->
      let c = Lg.counts n.f_gen in
      off := !off + c.Lg.offered;
      shed := !shed + c.Lg.shed;
      lost := !lost + c.Lg.lost;
      comp := !comp + c.Lg.completed;
      Hdr.merge_into ~into:latency (Lg.latency n.f_gen);
      pods := !pods + n.f_pool.Netperf.epool_active ();
      scale := !scale + List.length (n.f_scale_events ());
      List.iter
        (fun cc ->
          if String.equal cc.Slo.c_name "availability" then
            avail := Float.max !avail cc.Slo.c_worst_burn)
        (Slo.report n.f_slo))
    nodes;
  { t_offered = !off; t_shed = !shed; t_lost = !lost; t_completed = !comp;
    t_latency = latency; t_pods = !pods; t_scale_events = !scale;
    t_avail_burn = !avail }

(* The per-mode split, one (mode, generating members, serving members)
   per mode present.  A generator sheds before its request touches any
   service, so offered and shed belong to the generating node's mode;
   in-flight losses, completions, latency and pods belong to the serving
   mode. *)
let per_mode nodes =
  List.filter_map
    (fun mode ->
      match
        ( List.filter (fun n -> String.equal n.f_mode mode) nodes,
          List.filter (fun n -> String.equal n.f_serves mode) nodes )
      with
      | [], [] -> None
      | gen, srv -> Some (mode, gen, srv))
    [ "nat"; "brfusion"; "hostlo" ]

(* The primitive [Printf]'s ["%.6f"] ends in: the same bytes, without
   the format interpreter's garbage on every completion line. *)
external format_float : string -> float -> string = "caml_format_float"

let digest_of sc =
  let b = Buffer.create 8192 in
  List.iter
    (fun n ->
      let g = n.f_gen in
      let c = Lg.counts g in
      Buffer.add_string b
        (Printf.sprintf "node%d %s offered=%d admitted=%d shed=%d lost=%d \
                         completed=%d adm_limit=%d\n"
           n.f_ix n.f_mode c.Lg.offered c.Lg.admitted c.Lg.shed c.Lg.lost
           c.Lg.completed (Lg.admission_limit g));
      Lg.iter_completions g (fun at us ->
          Buffer.add_string b (string_of_int at);
          Buffer.add_char b ' ';
          Buffer.add_string b (format_float "%.6f" us);
          Buffer.add_char b '\n');
      (* Serving side: pool traffic and the autoscaler trajectory are
         digest material too — a scaling decision happening one window
         late under a different shard split must be caught. *)
      let pl = n.f_pool in
      Buffer.add_string b
        (Printf.sprintf "pool%d served=%d cold=%d active=%d ready=%d\n"
           n.f_ix (pl.Netperf.epool_served ())
           (pl.Netperf.epool_cold_starts ())
           (pl.Netperf.epool_active ())
           (pl.Netperf.epool_ready ()));
      List.iter
        (fun (at, d) ->
          Buffer.add_string b (Printf.sprintf "scale%d %d %d\n" n.f_ix at d))
        (n.f_scale_events ()))
    sc.sc_nodes;
  let ch = sc.sc_churn in
  Buffer.add_string b
    (Printf.sprintf "churn placed=%d unschedulable=%d departed=%d flaps=%d\n"
       ch.ch_placed ch.ch_unschedulable ch.ch_departed sc.sc_flaps);
  List.iteri
    (fun i n ->
      Buffer.add_string b
        (Printf.sprintf "sched%d %.6f %.6f\n" i (Node.cpu_requested n)
           (Node.mem_requested n)))
    sc.sc_sched;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest ?(params = default_params) ?(shards = 1) ?(domains = 1) ~quick () =
  digest_of (play (build ~p:params ~shards ~domains ~quick))

type summary = {
  s_offered : int;
  s_shed : int;
  s_lost : int;
  s_completed : int;
  s_p99_us : float;
  s_avail_worst_burn : float;
  s_pods : int;
  s_scale_events : int;
  s_windows : int;
  s_critical : int;
  s_digest : string;
}

(* Machine-readable fleet outcome: what the acceptance tests assert on
   (graceful-degradation dynamics) without scraping the rendered
   tables. *)
let summarize ?(params = default_params) ?(shards = 1) ?(domains = 1) ~quick
    () =
  let sc = play (build ~p:params ~shards ~domains ~quick) in
  let t = tally sc.sc_nodes in
  let st = Sharded.stats sc.sc_sd in
  {
    s_offered = t.t_offered;
    s_shed = t.t_shed;
    s_lost = t.t_lost;
    s_completed = t.t_completed;
    s_p99_us = Hdr.percentile t.t_latency 99.0;
    s_avail_worst_burn = t.t_avail_burn;
    s_pods = t.t_pods;
    s_scale_events = t.t_scale_events;
    s_windows = st.(0).Sharded.ss_windows;
    s_critical = Array.fold_left (fun a s -> a + s.Sharded.ss_critical) 0 st;
    s_digest = digest_of sc;
  }

(* Shard-imbalance table: how much each sub-engine actually did, how
   many lookahead windows the group synchronised at, and the events of
   the windows each shard was the busiest in (their sum is the run's
   length if every window cost its busiest shard). *)
let print_shard_table sd =
  print_endline "per-shard progress:";
  print_endline
    "  shard    events  delivered  windows   critical  pending  clock-ms";
  Array.iter
    (fun (s : Sharded.shard_stats) ->
      Printf.printf "  %5d  %8d  %9d  %7d  %9d  %7d  %8.1f\n" s.ss_shard
        s.ss_events s.ss_delivered s.ss_windows s.ss_critical s.ss_pending
        (float_of_int s.ss_clock /. 1e6))
    (Sharded.stats sd)

(* Windowed SLO compliance summed spec-wise across monitors that share
   one spec list. *)
let compliance_rows slos =
  match List.map Slo.report slos with
  | [] -> ()
  | first :: _ as reports ->
    List.iteri
      (fun i (c0 : Slo.compliance) ->
        let windows, viol =
          List.fold_left
            (fun (w, v) rep ->
              let c = List.nth rep i in
              (w + c.Slo.c_windows, v + c.Slo.c_violations))
            (0, 0) reports
        in
        let ratio =
          if windows = 0 then 1.0
          else 1.0 -. (float_of_int viol /. float_of_int windows)
        in
        Exp_util.row
          (Printf.sprintf "            %-16s %3d/%3d windows ok  (%.1f%%)"
             c0.Slo.c_name (windows - viol) windows (100.0 *. ratio)))
      first

let run ?(params = default_params) ?(shards = 1) ?(domains = 1) ~quick () =
  let p = params in
  let sc = play (build ~p ~shards ~domains ~quick) in
  Exp_util.header
    (Printf.sprintf
       "Fleet: %d nodes, %d shards, %d domains, %.0f req/s %s arrivals%s%s, \
        admission %s%s"
       p.nodes sc.sc_shards sc.sc_domains p.rate
       (match p.arrival with `Poisson -> "poisson" | `Constant -> "constant")
       (match p.profile with
       | None -> ""
       | Some pr -> ", link " ^ pr.Wire.p_name)
       (if p.fault_rate > 0.0 then
          Printf.sprintf ", fault-rate %.2f (%d flaps)" p.fault_rate
            sc.sc_flaps
        else "")
       (admission_to_string p.admission)
       (if p.autoscale then
          Printf.sprintf ", autoscale (pods <= %d)" p.pods_max
        else ""));
  List.iter
    (fun n ->
      let c = Lg.counts n.f_gen in
      let pl = n.f_pool in
      Exp_util.row
        (Printf.sprintf
           "  node %3d %-9s -> %-9s offered %6d shed %4d lost %4d done %6d  \
            p99 %8.1f us  pods %d (ready %d)%s"
           n.f_ix n.f_mode n.f_serves c.Lg.offered c.Lg.shed c.Lg.lost
           c.Lg.completed
           (Hdr.percentile (Lg.latency n.f_gen) 99.0)
           (pl.Netperf.epool_active ()) (pl.Netperf.epool_ready ())
           (if p.autoscale then
              Printf.sprintf " (%d scale events)"
                (List.length (n.f_scale_events ()))
            else "")))
    sc.sc_nodes;
  Exp_util.row "";
  Exp_util.row
    "  per-mode fleet SLO compliance and merged latency percentiles";
  Exp_util.row
    "  (offered/shed charged to the generator's mode — the shed decision";
  Exp_util.row
    "   happens at admission, before any mode serves; lost/done/latency";
  Exp_util.row "   attributed to the mode that served the requests):";
  List.iter
    (fun (mode, gen, srv) ->
      let g = tally gen and s = tally srv in
      Exp_util.row
        (Printf.sprintf
           "  %-9s gen %2d/serve %2d  offered %7d shed %5d | lost %5d done \
            %7d"
           mode (List.length gen) (List.length srv) g.t_offered g.t_shed
           s.t_lost s.t_completed);
      let h = s.t_latency in
      Exp_util.row
        (Printf.sprintf
           "            latency n=%d  p50 %8.1f  p99 %8.1f  p99.9 %8.1f us"
           (Hdr.count h) (Hdr.percentile h 50.0) (Hdr.percentile h 99.0)
           (Hdr.percentile h 99.9));
      compliance_rows (List.map (fun n -> n.f_slo) srv))
    (per_mode sc.sc_nodes);
  Exp_util.row "";
  (* Greppable one-line totals (CI asserts on these). *)
  let t = tally sc.sc_nodes in
  Exp_util.row
    (Printf.sprintf "  fleet total: offered %d shed %d lost %d done %d"
       t.t_offered t.t_shed t.t_lost t.t_completed);
  let ch = sc.sc_churn in
  Exp_util.row
    (Printf.sprintf
       "  trace churn: placed %d  unschedulable %d  departed %d  (%d pods)"
       ch.ch_placed ch.ch_unschedulable ch.ch_departed p.pods);
  Exp_util.kv "digest" (digest_of sc);
  Exp_util.row "";
  print_shard_table sc.sc_sd

(* Shedding-vs-scaling frontier: the same fleet swept over degraded link
   profiles and the admission x autoscaling grid.  Each cell reports,
   per deployment mode, what fraction of offered load was refused at
   admission (charged to the generating mode) against the completion
   count and p99 the serving mode delivered — the trade the control
   loop navigates: shed early and keep the tail flat, or scale out and
   absorb. *)
let frontier ?(params = default_params) ?(shards = 1) ?(domains = 1) ~quick
    () =
  let p0 = params in
  let profile name =
    match Wire.profile name with
    | Some pr -> pr
    | None -> failwith ("fig_fleet: unknown link profile " ^ name)
  in
  let cells =
    [ ("wan", profile "wan", 0.0);
      ("lossy", profile "lossy", 0.0);
      ("flaky", profile "lossy", 0.5) ]
  in
  let controls =
    [ (`Fixed, false); (`Burn, false); (`Fixed, true); (`Burn, true) ]
  in
  Exp_util.header
    (Printf.sprintf
       "Fleet frontier: %d nodes, %.0f req/s, service %g us, pods <= %d \
        — shedding vs scaling per link profile"
       p0.nodes p0.rate p0.service_us p0.pods_max);
  Exp_util.row
    (Printf.sprintf "  %-7s %-11s %-9s %9s %7s %8s %9s %12s" "link" "control"
       "mode" "offered" "shed%" "done%" "p99(us)" "pods(final)");
  List.iter
    (fun (pname, prof, fault_rate) ->
      List.iter
        (fun (admission, autoscale) ->
          let p =
            { p0 with profile = Some prof; fault_rate; admission; autoscale }
          in
          let sc = play (build ~p ~shards ~domains ~quick) in
          let control =
            admission_to_string admission ^ if autoscale then "+scale" else ""
          in
          List.iter
            (fun (mode, gen, srv) ->
              let g = tally gen and s = tally srv in
              let pct a b =
                if b = 0 then 0.0
                else 100.0 *. float_of_int a /. float_of_int b
              in
              Exp_util.row
                (Printf.sprintf
                   "  %-7s %-11s %-9s %9d %6.1f%% %7.1f%% %9.1f %12d" pname
                   control mode g.t_offered (pct g.t_shed g.t_offered)
                   (pct s.t_completed g.t_offered)
                   (Hdr.percentile s.t_latency 99.0)
                   s.t_pods))
            (per_mode sc.sc_nodes))
        controls)
    cells

let check ?(params = default_params) ~quick () =
  let runs =
    List.map
      (fun (shards, domains) ->
        ( Printf.sprintf "shards=%d domains=%d" shards domains,
          digest ~params ~shards ~domains ~quick () ))
      (Exp_util.splits_for ~nodes:params.nodes)
  in
  Exp_util.digests_agree
    ~title:
      (Printf.sprintf "fleet determinism (%d nodes, %d configs)" params.nodes
         (List.length runs))
    [ ("fleet", runs) ]
