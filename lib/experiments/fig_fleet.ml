(* Fleet-scale trace replay under open-loop load.  See fig_fleet.mli.

   Determinism across (shards, domains) splits rests on four
   disciplines the setup below follows:
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
module Netem = Nest_net.Netem
module Wire = Nest_net.Wire
module Lg = Nest_loadgen.Loadgen
module Admission = Nest_loadgen.Admission
module Arrival = Nest_loadgen.Arrival
module Size_dist = Nest_loadgen.Size_dist
module Trace = Nest_traces.Trace
module Node = Nest_orch.Node
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
  profile : Netem.profile option;
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

type node = {
  f_ix : int;
  f_tb : Testbed.t;
  f_mode : string;
  (* Mode of the service this node's generator drives: a wire-served
     node drives its ring peer's service, a Hostlo node its own pair —
     latency percentiles are attributed to the mode that served them. *)
  mutable f_serves : string;
  f_site : Deploy.server_site option ref;  (* wire-served service *)
  f_pair : Deploy.pair_site option ref;    (* hostlo pair *)
  mutable f_gen : Lg.t option;
  mutable f_slo : Slo.t option;            (* client-side, on the generator *)
  (* Serving side: the pod pool, its server-side SLO monitor (queueing +
     service latency on this node), and the autoscaler driving the pool
     from that monitor's burn.  All three live on this node's engine. *)
  mutable f_pool : Netperf.echo_pool option;
  mutable f_srv_slo : Slo.t option;
  mutable f_scaler : Autoscaler.t option;
}

type churn = {
  mutable ch_placed : int;
  mutable ch_unschedulable : int;
  mutable ch_departed : int;
}

let build ~p ~shards () =
  let sd = Sharded.create ~seed:p.seed ~shards:(max 1 shards) () in
  let mk i =
    let mode = mode_of_ix i in
    let tb =
      Testbed.create
        ~sharded:(sd, i mod shards)
        ~prefix:(Printf.sprintf "n%d:" i)
        ~rng:(Prng.create (node_seed p.seed i))
        ~num_vms:(if is_wire_served mode then 1 else 2)
        ()
    in
    { f_ix = i; f_tb = tb; f_mode = mode; f_serves = mode; f_site = ref None;
      f_pair = ref None; f_gen = None; f_slo = None; f_pool = None;
      f_srv_slo = None; f_scaler = None }
  in
  let ns = Array.init p.nodes mk in
  let ws =
    Array.of_list
      (List.filter (fun n -> is_wire_served n.f_mode) (Array.to_list ns))
  in
  Array.iteri
    (fun j n -> n.f_serves <- ws.((j + 1) mod Array.length ws).f_mode)
    ws;
  (sd, ns)

(* Serving side of one node: a pod pool behind the service socket, a
   server-side SLO monitor fed queueing + service latency, and — when
   autoscaling is on — a controller driving the pool from that monitor's
   burn.  Everything is created inside the deployment callback, on the
   node's own engine; the pool ceiling is planned statically from the
   node's remaining capacity (Autopilot placement arithmetic), never
   reserved at runtime. *)
let install_serving n ~p ~start ~stop ~ns ~port ~new_exec ~cap_node =
  let engine = n.f_tb.Testbed.engine in
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
    Netperf.udp_echo_pool ~ns ~port ~new_exec ~service_cost ~initial:1
      ~max:pool_max ~standby ~slo:srv_slo ()
  in
  n.f_srv_slo <- Some srv_slo;
  n.f_pool <- Some pool;
  if p.autoscale then
    n.f_scaler <-
      Some
        (Autoscaler.create ~engine
           ~label:(Printf.sprintf "n%d:scaler" n.f_ix)
           ~min:1 ~max:pool_max ~window:slo_window
           ~burn_source:(fun () -> Slo.worst_last_burn srv_slo)
           ~apply:pool.Netperf.epool_set_active ~start ~stop ())

let setup sd ns ~p ~start ~stop =
  Array.iter
    (fun n ->
      if is_wire_served n.f_mode then
        Deploy.deploy_single n.f_tb
          ~mode:(if String.equal n.f_mode "nat" then `Nat else `Brfusion)
          ~name:(Printf.sprintf "n%d:pod" n.f_ix)
          ~entity:"server" ~port:service_port
          ~k:(fun site ->
            let cap_node = List.hd n.f_tb.Testbed.nodes in
            install_serving n ~p ~start ~stop ~ns:site.Deploy.site_ns
              ~port:site.Deploy.site_port ~new_exec:site.Deploy.site_new_exec
              ~cap_node;
            n.f_site := Some site)
      else
        Deploy.deploy_pair ~standby:p.standby n.f_tb ~mode:`Hostlo
          ~name:(Printf.sprintf "n%d:pod" n.f_ix)
          ~a_entity:"client" ~b_entity:"server" ~port:service_port
          ~k:(fun pair ->
            (* The server fraction (b) lives on the pair's second VM. *)
            let cap_node =
              match n.f_tb.Testbed.nodes with
              | [ _; b ] -> b
              | l -> List.hd l
            in
            install_serving n ~p ~start ~stop ~ns:pair.Deploy.b_ns
              ~port:pair.Deploy.b_port ~new_exec:pair.Deploy.b_new_exec
              ~cap_node;
            n.f_pair := Some pair))
    ns;
  Sharded.run ~until:(Time.sec 1) sd;
  Array.iter
    (fun n ->
      let stuck =
        if is_wire_served n.f_mode then !(n.f_site) = None
        else !(n.f_pair) = None
      in
      if stuck then
        failwith (Printf.sprintf "fig_fleet: node %d deployment stuck" n.f_ix))
    ns

(* Ring over the wire-served nodes only.  Each direction's impairment
   stream is keyed on (root seed, ring position, direction); flap plans
   schedule set_down events on that direction's source shard.  Returns
   the number of planned flaps (digest material). *)
let wire_ring sd ns ~shards ~p ~start ~stop =
  let ws = Array.of_list (List.filter (fun n -> is_wire_served n.f_mode)
                            (Array.to_list ns)) in
  let k = Array.length ws in
  let flaps = ref 0 in
  Array.iteri
    (fun j n ->
      let peer = ws.((j + 1) mod k) in
      let site =
        match !(peer.f_site) with Some s -> s | None -> assert false
      in
      let latency =
        match p.profile with
        | None -> default_link_latency
        | Some pr -> pr.Netem.p_delay
      in
      let dir d =
        (* One impair per direction even without a profile: the flap
           plan needs the down flag. *)
        let rng = Prng.create (node_seed p.seed (40000 + (2 * j) + d)) in
        match p.profile with
        | Some pr when p.fault_rate > 0.0 || pr.Netem.p_loss > 0.0
                       || pr.Netem.p_jitter > 0 ->
          Some (Wire.impair_of_profile pr ~rng)
        | Some _ | None ->
          if p.fault_rate > 0.0 then Some (Wire.impair ~rng ()) else None
      in
      let fwd_impair = dir 0 and rev_impair = dir 1 in
      let src_shard n = n.f_ix mod shards in
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
        plan 0 fwd_impair (src_shard n);
        plan 1 rev_impair (src_shard peer)
      end;
      ignore
        (Wire.udp_relay sd
           ~client_side:(src_shard n, Nest_virt.Host.ns n.f_tb.Testbed.host)
           ~server_side:
             (src_shard peer, Nest_virt.Host.ns peer.f_tb.Testbed.host)
           ~client_port:gw_client_port ~server_port:gw_server_port
           ~target:(site.Deploy.site_addr, site.Deploy.site_port)
           ~latency ?fwd_impair ?rev_impair ()))
    ws;
  !flaps

(* Per-node open-loop generator + SLO monitor, both on the node's own
   engine.  Latency ceilings and request timeouts scale with the link
   profile so a WAN fleet is judged against WAN physics. *)
let start_generators ns ~p ~start ~stop =
  let per_node_rate = p.rate /. float_of_int (Array.length ns) in
  let prof_ns =
    match p.profile with
    | None -> default_link_latency
    | Some pr -> pr.Netem.p_delay + pr.Netem.p_jitter
  in
  (* The latency budget covers both the wire (profile physics) and the
     service itself: a 2 ms service can never meet a 2 ms end-to-end
     ceiling, and a ceiling below the service time pins a Burn policy at
     its floor forever. *)
  let limit_us =
    Float.max
      (Float.max 2000.0 (Time.to_us_f (6 * prof_ns)))
      (8.0 *. p.service_us)
  in
  let timeout = max (Time.ms 100) (8 * prof_ns) in
  let gw = Nest_net.Ipv4.of_string "192.168.100.1" in
  Array.iter
    (fun n ->
      let tb = n.f_tb in
      let engine = tb.Testbed.engine in
      let slo =
        Slo.create ~start
          ~specs:
            [ Slo.availability ~window:slo_window ~target:0.9 ();
              Slo.latency_p ~window:slo_window ~p:99.0 ~limit_us ();
              Slo.goodput ~window:slo_window
                ~floor_per_s:(0.2 *. per_node_rate) () ]
          ~stop engine
      in
      n.f_slo <- Some slo;
      let arrival =
        let rng = Prng.create (node_seed p.seed (20000 + n.f_ix)) in
        match p.arrival with
        | `Poisson -> Arrival.poisson ~rng ~rate_per_s:per_node_rate
        | `Constant -> Arrival.constant ~rate_per_s:per_node_rate
      in
      let sizes = Size_dist.Pareto { shape = 1.2; lo = 64; hi = 1400 } in
      let rng = Prng.create (node_seed p.seed (10000 + n.f_ix)) in
      let label = Printf.sprintf "n%d:%s" n.f_ix n.f_mode in
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
      let gen =
        if is_wire_served n.f_mode then
          Lg.udp ~engine ~label ~arrival ~sizes ~rng ?admission ?burn_source
            ~timeout ~slo ~gen_id:n.f_ix ~ns:tb.Testbed.client_ns
            ~exec:
              (Testbed.client_app_exec tb
                 ~name:(Printf.sprintf "n%d:loadgen" n.f_ix))
            ~target:(fun () -> Some (gw, gw_client_port))
            ~start ~stop ()
        else
          let pair =
            match !(n.f_pair) with Some pr -> pr | None -> assert false
          in
          Lg.udp ~engine ~label ~arrival ~sizes ~rng ?admission ?burn_source
            ~timeout ~slo ~gen_id:n.f_ix ~ns:pair.Deploy.a_ns
            ~exec:pair.Deploy.a_exec
            ~target:(fun () -> Some (pair.Deploy.b_addr, pair.Deploy.b_port))
            ~start ~stop ()
      in
      n.f_gen <- Some gen)
    ns

(* Live trace replay: grow a synthetic cluster trace until it holds
   [pods] pods, scale its relative demands so the whole population wants
   ~1.5x the fleet's schedulable capacity (departures make room; the
   overflow is what exercises unschedulable accounting), then replay it
   as a continuous arrival stream through most-requested placement. *)
let arm_churn sd ns ~p ~start ~stop =
  let ctl = Sharded.engine sd 0 in
  let all_nodes =
    List.concat_map (fun n -> n.f_tb.Testbed.nodes) (Array.to_list ns)
  in
  let rec grow u =
    let users = Nest_traces.Trace_gen.generate ~seed:p.seed ~users:u in
    let total =
      List.fold_left (fun a us -> a + Trace.user_pods us) 0 users
    in
    if total >= p.pods || u > 1_000_000 then users else grow (u * 2)
  in
  let users = grow 64 in
  let pods_all =
    List.concat_map
      (fun u -> List.map (fun pod -> (Trace.pod_cpu pod, Trace.pod_mem pod))
                  u.Trace.pods)
      users
  in
  let demands = Array.of_list pods_all in
  let demands = Array.sub demands 0 (min p.pods (Array.length demands)) in
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
  let crng = Prng.create (node_seed p.seed 30000) in
  let window = stop - start in
  let npods = Array.length demands in
  Array.iteri
    (fun i (c, m) ->
      let cpu = c *. scale_cpu and mem = m *. scale_mem in
      let at = start + ((i + 1) * window / max 1 npods) in
      let lifetime =
        max 1
          (int_of_float
             (Nest_sim.Dist.exponential crng
                ~mean:(float_of_int window /. 3.0)))
      in
      Engine.schedule_at ctl ~label:"fleet:pod-arrival" ~at (fun () ->
          match Nest_orch.Scheduler.most_requested all_nodes ~cpu ~mem with
          | None -> ch.ch_unschedulable <- ch.ch_unschedulable + 1
          | Some node ->
            Node.reserve node ~cpu ~mem;
            ch.ch_placed <- ch.ch_placed + 1;
            Engine.schedule ctl ~label:"fleet:pod-departure" ~delay:lifetime
              (fun () ->
                Node.release node ~cpu ~mem;
                ch.ch_departed <- ch.ch_departed + 1)))
    demands;
  (ch, all_nodes)

let digest_of ns (ch : churn) all_nodes ~flaps =
  let b = Buffer.create 8192 in
  Array.iter
    (fun n ->
      let g = match n.f_gen with Some g -> g | None -> assert false in
      let c = Lg.counts g in
      Buffer.add_string b
        (Printf.sprintf "node%d %s offered=%d admitted=%d shed=%d lost=%d \
                         completed=%d adm_limit=%d\n"
           n.f_ix n.f_mode c.Lg.offered c.Lg.admitted c.Lg.shed c.Lg.lost
           c.Lg.completed (Lg.admission_limit g));
      List.iter
        (fun (at, us) -> Buffer.add_string b (Printf.sprintf "%d %.6f\n" at us))
        (Lg.completions g);
      (* Serving side: pool traffic and the autoscaler trajectory are
         digest material too — a scaling decision happening one window
         late under a different shard split must be caught. *)
      (match n.f_pool with
      | Some pl ->
        Buffer.add_string b
          (Printf.sprintf "pool%d served=%d cold=%d active=%d ready=%d\n"
             n.f_ix (pl.Netperf.epool_served ())
             (pl.Netperf.epool_cold_starts ())
             (pl.Netperf.epool_active ())
             (pl.Netperf.epool_ready ()))
      | None -> ());
      match n.f_scaler with
      | Some a ->
        List.iter
          (fun (at, d) ->
            Buffer.add_string b
              (Printf.sprintf "scale%d %d %d\n" n.f_ix at d))
          (Autoscaler.events a)
      | None -> ())
    ns;
  Buffer.add_string b
    (Printf.sprintf "churn placed=%d unschedulable=%d departed=%d flaps=%d\n"
       ch.ch_placed ch.ch_unschedulable ch.ch_departed flaps);
  List.iteri
    (fun i n ->
      Buffer.add_string b
        (Printf.sprintf "sched%d %.6f %.6f\n" i (Node.cpu_requested n)
           (Node.mem_requested n)))
    all_nodes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_scenario ?(params = default_params) ?shards ?(domains = 1) ~quick () =
  let p = params in
  if p.nodes <= 0 then invalid_arg "fig_fleet: nodes must be > 0";
  if p.pods < 0 then invalid_arg "fig_fleet: pods must be >= 0";
  if p.rate <= 0.0 then invalid_arg "fig_fleet: rate must be > 0";
  if p.fault_rate < 0.0 || p.fault_rate > 1.0 then
    invalid_arg "fig_fleet: fault-rate in [0,1]";
  if p.standby < 0 then invalid_arg "fig_fleet: standby must be >= 0";
  if p.service_us <= 0.0 then invalid_arg "fig_fleet: service-us must be > 0";
  if p.pods_max < 1 then invalid_arg "fig_fleet: pods-max must be >= 1";
  let shards =
    match shards with Some s -> s | None -> Testbed.get_default_shards ()
  in
  let shards = max 1 (min shards p.nodes) in
  let d = Exp_util.durations ~quick in
  let sd, ns = build ~p ~shards () in
  let start = Time.sec 1 + d.Exp_util.warmup in
  let stop = start + d.Exp_util.measure in
  setup sd ns ~p ~start ~stop;
  let flaps = wire_ring sd ns ~shards ~p ~start ~stop in
  start_generators ns ~p ~start ~stop;
  let ch, all_nodes = arm_churn sd ns ~p ~start ~stop in
  let prof_ns =
    match p.profile with
    | None -> default_link_latency
    | Some pr -> pr.Netem.p_delay + pr.Netem.p_jitter
  in
  (* The margin must let every admitted request resolve — complete or
     hit its timeout — so the digest never races the horizon. *)
  let margin = max (Time.ms 100) (8 * prof_ns) + Time.ms 5 in
  Sharded.run ~until:(stop + margin) ~domains sd;
  (sd, ns, ch, all_nodes, flaps)

let digest ?params ?shards ?domains ~quick () =
  let _, ns, ch, all_nodes, flaps =
    run_scenario ?params ?shards ?domains ~quick ()
  in
  digest_of ns ch all_nodes ~flaps

type summary = {
  s_offered : int;
  s_shed : int;
  s_lost : int;
  s_completed : int;
  s_p99_us : float;
  s_avail_worst_burn : float;
  s_pods : int;
  s_scale_events : int;
  s_digest : string;
}

(* Machine-readable fleet outcome: what the acceptance tests assert on
   (graceful-degradation dynamics) without scraping the rendered
   tables. *)
let summarize ?params ?shards ?domains ~quick () =
  let _, ns, ch, all_nodes, flaps =
    run_scenario ?params ?shards ?domains ~quick ()
  in
  let merged = Hdr.create ~name:"fleet:latency_us" () in
  let off = ref 0 and shed = ref 0 and lost = ref 0 and comp = ref 0 in
  let avail = ref 0.0 and pods = ref 0 and scale = ref 0 in
  Array.iter
    (fun n ->
      let g = match n.f_gen with Some g -> g | None -> assert false in
      let c = Lg.counts g in
      off := !off + c.Lg.offered;
      shed := !shed + c.Lg.shed;
      lost := !lost + c.Lg.lost;
      comp := !comp + c.Lg.completed;
      Hdr.merge_into ~into:merged (Lg.latency g);
      (match n.f_slo with
      | Some s ->
        List.iter
          (fun cc ->
            if String.equal cc.Slo.c_name "availability" then
              avail := Float.max !avail cc.Slo.c_worst_burn)
          (Slo.report s)
      | None -> ());
      (match n.f_pool with
      | Some pl -> pods := !pods + pl.Netperf.epool_active ()
      | None -> ());
      match n.f_scaler with
      | Some a -> scale := !scale + Autoscaler.transitions a
      | None -> ())
    ns;
  {
    s_offered = !off;
    s_shed = !shed;
    s_lost = !lost;
    s_completed = !comp;
    s_p99_us = Hdr.percentile merged 99.0;
    s_avail_worst_burn = !avail;
    s_pods = !pods;
    s_scale_events = !scale;
    s_digest = digest_of ns ch all_nodes ~flaps;
  }

let modes_present ns =
  List.filter
    (fun m ->
      Array.exists
        (fun n -> String.equal n.f_serves m || String.equal n.f_mode m)
        ns)
    [ "nat"; "brfusion"; "hostlo" ]

let run ?(params = default_params) ?shards ?(domains = 1) ~quick () =
  let p = params in
  let sd, ns, ch, all_nodes, flaps =
    run_scenario ~params ?shards ~domains ~quick ()
  in
  Exp_util.header
    (Printf.sprintf
       "Fleet: %d nodes, %d shards, %d domains, %.0f req/s %s arrivals%s%s, \
        admission %s%s"
       (Array.length ns) (Sharded.shards sd) domains p.rate
       (match p.arrival with `Poisson -> "poisson" | `Constant -> "constant")
       (match p.profile with
       | None -> ""
       | Some pr -> ", link " ^ pr.Netem.p_name)
       (if p.fault_rate > 0.0 then
          Printf.sprintf ", fault-rate %.2f (%d flaps)" p.fault_rate flaps
        else "")
       (admission_to_string p.admission)
       (if p.autoscale then
          Printf.sprintf ", autoscale (pods <= %d)" p.pods_max
        else ""));
  Array.iter
    (fun n ->
      let g = match n.f_gen with Some g -> g | None -> assert false in
      let c = Lg.counts g in
      let h = Lg.latency g in
      let pods =
        match n.f_pool with
        | Some pl ->
          Printf.sprintf "  pods %d (ready %d)%s"
            (pl.Netperf.epool_active ())
            (pl.Netperf.epool_ready ())
            (match n.f_scaler with
            | Some a ->
              Printf.sprintf " (%d scale events)" (Autoscaler.transitions a)
            | None -> "")
        | None -> ""
      in
      Exp_util.row
        (Printf.sprintf
           "  node %3d %-9s -> %-9s offered %6d shed %4d lost %4d done %6d  \
            p99 %8.1f us%s"
           n.f_ix n.f_mode n.f_serves c.Lg.offered c.Lg.shed c.Lg.lost
           c.Lg.completed (Hdr.percentile h 99.0) pods))
    ns;
  Exp_util.row "";
  Exp_util.row
    "  per-mode fleet SLO compliance and merged latency percentiles";
  Exp_util.row
    "  (offered/shed charged to the generator's mode — the shed decision";
  Exp_util.row
    "   happens at admission, before any mode serves; lost/done/latency";
  Exp_util.row "   attributed to the mode that served the requests):";
  List.iter
    (fun mode ->
      (* Satellite fix: a generator sheds before its request touches any
         service, so shed (and offered) belong to the generating node's
         mode; in-flight losses and completion latency belong to the
         serving mode. *)
      let gen_members =
        List.filter (fun n -> String.equal n.f_mode mode) (Array.to_list ns)
      in
      let members =
        List.filter (fun n -> String.equal n.f_serves mode) (Array.to_list ns)
      in
      let merged = Hdr.create ~name:(mode ^ ":latency_us") () in
      let c_off = ref 0 and c_shed = ref 0 and c_lost = ref 0 in
      let c_done = ref 0 in
      List.iter
        (fun n ->
          let g = match n.f_gen with Some g -> g | None -> assert false in
          let c = Lg.counts g in
          c_off := !c_off + c.Lg.offered;
          c_shed := !c_shed + c.Lg.shed)
        gen_members;
      List.iter
        (fun n ->
          let g = match n.f_gen with Some g -> g | None -> assert false in
          let c = Lg.counts g in
          c_lost := !c_lost + c.Lg.lost;
          c_done := !c_done + c.Lg.completed;
          Hdr.merge_into ~into:merged (Lg.latency g))
        members;
      Exp_util.row
        (Printf.sprintf
           "  %-9s gen %2d/serve %2d  offered %7d shed %5d | lost %5d done \
            %7d"
           mode (List.length gen_members) (List.length members) !c_off !c_shed
           !c_lost !c_done);
      Exp_util.row
        (Printf.sprintf
           "            latency n=%d  p50 %8.1f  p99 %8.1f  p99.9 %8.1f us"
           (Hdr.count merged) (Hdr.percentile merged 50.0)
           (Hdr.percentile merged 99.0) (Hdr.percentile merged 99.9));
      (* Sum windowed compliance spec-wise across the mode's monitors. *)
      let reports =
        List.map
          (fun n ->
            match n.f_slo with Some s -> Slo.report s | None -> [])
          members
      in
      (match reports with
      | [] | [] :: _ -> ()
      | (first :: _) :: _ as _all ->
        ignore first;
        let nspecs = List.length (List.hd reports) in
        for i = 0 to nspecs - 1 do
          let name = ref "" and windows = ref 0 and viol = ref 0 in
          List.iter
            (fun rep ->
              match List.nth_opt rep i with
              | Some c ->
                name := c.Slo.c_name;
                windows := !windows + c.Slo.c_windows;
                viol := !viol + c.Slo.c_violations
              | None -> ())
            reports;
          let ratio =
            if !windows = 0 then 1.0
            else 1.0 -. (float_of_int !viol /. float_of_int !windows)
          in
          Exp_util.row
            (Printf.sprintf "            %-16s %3d/%3d windows ok  (%.1f%%)"
               !name (!windows - !viol) !windows (100.0 *. ratio))
        done))
    (modes_present ns);
  Exp_util.row "";
  (* Greppable one-line totals (CI asserts on these). *)
  let t_off = ref 0 and t_shed = ref 0 and t_lost = ref 0 and t_done = ref 0 in
  Array.iter
    (fun n ->
      let g = match n.f_gen with Some g -> g | None -> assert false in
      let c = Lg.counts g in
      t_off := !t_off + c.Lg.offered;
      t_shed := !t_shed + c.Lg.shed;
      t_lost := !t_lost + c.Lg.lost;
      t_done := !t_done + c.Lg.completed)
    ns;
  Exp_util.row
    (Printf.sprintf
       "  fleet total: offered %d shed %d lost %d done %d"
       !t_off !t_shed !t_lost !t_done);
  Exp_util.row
    (Printf.sprintf
       "  trace churn: placed %d  unschedulable %d  departed %d  (%d pods)"
       ch.ch_placed ch.ch_unschedulable ch.ch_departed p.pods);
  Exp_util.kv "digest" (digest_of ns ch all_nodes ~flaps);
  Exp_util.row "";
  Exp_util.print_shard_table sd

(* Shedding-vs-scaling frontier: the same fleet swept over degraded link
   profiles and the admission x autoscaling grid.  Each cell reports,
   per deployment mode, what fraction of offered load was refused at
   admission (charged to the generating mode) against the completion
   count and p99 the serving mode delivered — the trade the control
   loop navigates: shed early and keep the tail flat, or scale out and
   absorb. *)
let frontier ?(params = default_params) ?shards ?(domains = 1) ~quick () =
  let p0 = params in
  let profile name =
    match Netem.profile name with
    | Some pr -> pr
    | None -> failwith ("fig_fleet: unknown netem profile " ^ name)
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
       "Fleet frontier: %d nodes, %.0f req/s, service %.0f us, pods <= %d \
        — shedding vs scaling per link profile"
       p0.nodes p0.rate p0.service_us p0.pods_max);
  Exp_util.row
    (Printf.sprintf "  %-7s %-10s %-9s %9s %7s %8s %9s %12s" "link" "control"
       "mode" "offered" "shed%" "done%" "p99(us)" "pods(final)");
  List.iter
    (fun (pname, prof, fault_rate) ->
      List.iter
        (fun (admission, autoscale) ->
          let p =
            { p0 with profile = Some prof; fault_rate; admission; autoscale }
          in
          let _sd, ns, _ch, _all, _flaps =
            run_scenario ~params:p ?shards ~domains ~quick ()
          in
          let control =
            admission_to_string admission ^ if autoscale then "+scale" else ""
          in
          List.iter
            (fun mode ->
              let gen_members =
                List.filter
                  (fun n -> String.equal n.f_mode mode)
                  (Array.to_list ns)
              in
              let members =
                List.filter
                  (fun n -> String.equal n.f_serves mode)
                  (Array.to_list ns)
              in
              let off = ref 0 and shed = ref 0 and don = ref 0 in
              let pods = ref 0 in
              let merged = Hdr.create ~name:"frontier" () in
              List.iter
                (fun n ->
                  let g =
                    match n.f_gen with Some g -> g | None -> assert false
                  in
                  let c = Lg.counts g in
                  off := !off + c.Lg.offered;
                  shed := !shed + c.Lg.shed)
                gen_members;
              List.iter
                (fun n ->
                  let g =
                    match n.f_gen with Some g -> g | None -> assert false
                  in
                  let c = Lg.counts g in
                  don := !don + c.Lg.completed;
                  Hdr.merge_into ~into:merged (Lg.latency g);
                  match n.f_pool with
                  | Some pl -> pods := !pods + pl.Netperf.epool_active ()
                  | None -> ())
                members;
              let pct a b =
                if b = 0 then 0.0
                else 100.0 *. float_of_int a /. float_of_int b
              in
              Exp_util.row
                (Printf.sprintf
                   "  %-7s %-10s %-9s %9d %6.1f%% %7.1f%% %9.1f %12d" pname
                   control mode !off (pct !shed !off) (pct !don !off)
                   (Hdr.percentile merged 99.0)
                   !pods))
            (modes_present ns))
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
