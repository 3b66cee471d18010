(* nestsim — experiment driver CLI.

   Run any table or figure of the paper's evaluation:
     nestsim run fig4
     nestsim run all --quick
     nestsim run ablations
     nestsim list
     nestsim obs run fig4 --out trace.json
     nestsim trace gen --users 492 --seed 2026 --out trace.csv
     nestsim trace stats trace.csv *)

let list_cmd () =
  List.iter
    (fun e ->
      Printf.printf "%-8s %s\n" e.Nest_experiments.Registry.id
        e.Nest_experiments.Registry.description)
    (Nest_experiments.Registry.all @ Nest_experiments.Registry.ablations)

(* A path that cannot be read or written, or a file that does not
   parse, ends the command like any other bad input: one line on stderr
   and exit 1, not an uncaught exception. *)
let or_exit f =
  try f () with Sys_error msg | Failure msg ->
    Printf.eprintf "nestsim: %s\n" msg;
    exit 1

(* A count below its floor ends the command like any other bad input:
   one line on stderr and exit 1. *)
let at_least floor flag v =
  if v < floor then begin
    Printf.eprintf "nestsim: --%s must be %s (got %d)\n" flag
      (if floor = 1 then "positive" else ">= " ^ string_of_int floor)
      v;
    exit 1
  end

let at_most ceiling flag v =
  if v > ceiling then begin
    Printf.eprintf "nestsim: --%s must be <= %d (got %d)\n" flag ceiling v;
    exit 1
  end

(* Past the runtime's domain limit a parallel run could not start. *)
let check_domains flag v =
  at_least 1 flag v;
  at_most Nest_sim.Domain_pool.max_domains flag v

(* The ring is allocated up front, so its size has a ceiling too. *)
let check_trace_capacity v =
  at_least 1 "trace-capacity" v;
  at_most Nest_sim.Trace.max_capacity "trace-capacity" v

(* Every id is resolved before any experiment runs, so a typo late in
   the list costs no output and still exits 1. *)
let experiments ids =
  List.map
    (fun id ->
      match Nest_experiments.Registry.find id with
      | Some e -> e
      | None ->
        Printf.eprintf "nestsim: unknown experiment %S; try `nestsim list'\n"
          id;
        exit 1)
    ids

let run_experiments ~quick =
  List.iter (fun e -> e.Nest_experiments.Registry.run ~quick)

let run_cmd ids quick jobs trace metrics obs_json trace_capacity =
  check_trace_capacity trace_capacity;
  check_domains "jobs" jobs;
  let chosen =
    match ids with
    | [ "all" ] | [] -> None
    | [ "ablations" ] -> Some Nest_experiments.Registry.ablations
    | ids -> Some (experiments ids)
  in
  Nest_experiments.Exp_util.Obs.configure ~trace ~metrics ~json:obs_json
    ~trace_capacity ();
  Nest_experiments.Exp_util.Par.set_jobs jobs;
  (match chosen with
  | None -> Nest_experiments.Registry.run_all ~jobs ~quick ()
  | Some es -> run_experiments ~quick es);
  Nest_experiments.Exp_util.Obs.dump ()

(* Observability-first run: full collection on, any registered experiment
   (or none), a Perfetto-loadable Chrome trace written to --out, and a
   per-hop latency-attribution table comparing the deployment modes. *)
(* A timeline tick waits one period in the engine's queue, which refuses
   an event 2^42 ns (about 73 min) or more past another queued one. *)
let max_timeline_period_us = 3_600_000_000

let obs_cmd ids quick out trace_capacity timeline_period_us prov_sample slo =
  check_trace_capacity trace_capacity;
  at_least 1 "timeline-period" timeline_period_us;
  at_most max_timeline_period_us "timeline-period" timeline_period_us;
  at_least 1 "prov-sample" prov_sample;
  let chosen = experiments ids in
  (* The trace is written only after every experiment has run, so find
     out now whether --out can be opened. *)
  or_exit (fun () ->
      close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 out));
  Nest_experiments.Exp_util.Obs.configure ~trace:true ~metrics:true
    ~provenance:true ~prov_sample ~timeline:true ~trace_capacity
    ~timeline_period:(Nest_sim.Time.us timeline_period_us) ();
  run_experiments ~quick chosen;
  (* Timed per-mode probes: each deploys its own testbed (attached above
     through the sync helpers), so their spans land in the export too.
     The probes decompose one datagram exactly, so they are never
     sampled away — --prov-sample applies to the experiments above. *)
  Nest_experiments.Exp_util.Obs.configure ~prov_sample:1 ();
  let probes = Nest_experiments.Exp_util.provenance_probes () in
  let ex = Nest_experiments.Exp_util.Obs.export_chrome () in
  List.iter
    (fun (label, entries) ->
      let pid = Nest_sim.Trace_export.process ex ~name:("probe:" ^ label) in
      Nest_sim.Trace_export.add_provenance ex ~pid entries)
    probes;
  Nest_sim.Trace_export.to_file ex out;
  List.iter Nest_experiments.Exp_util.print_attribution probes;
  Nest_experiments.Exp_util.Obs.discard ();
  (* Live SLO monitoring demo: one fault-free served cell per deployment
     mode carrying netperf UDP_RR with the standard chaos objectives
     (availability, p99 latency, goodput), evaluated window by window on
     the engine clock.  Deterministic in the seed. *)
  if slo then begin
    print_newline ();
    print_endline
      "Per-mode SLO compliance (fault-free UDP_RR cell, 500 ms windows):";
    List.iter
      (fun mode ->
        let o =
          Nest_fault.Chaos.run_cell ~quick:true
            ~workload:Nest_fault.Chaos.Rr ~mode ~rate:0.0 ~seed:42L ()
        in
        Printf.printf "  %s\n" o.Nest_fault.Chaos.o_mode;
        List.iter
          (fun c -> Format.printf "    %a@." Nest_sim.Slo.pp_compliance c)
          o.Nest_fault.Chaos.o_slo;
        let lat = o.Nest_fault.Chaos.o_slo_lat in
        if Nest_sim.Hdr.count lat > 0 then
          Printf.printf "    latency n=%d p50 %.1f us p99 %.1f us\n"
            (Nest_sim.Hdr.count lat)
            (Nest_sim.Hdr.percentile lat 50.0)
            (Nest_sim.Hdr.percentile lat 99.0))
      Nest_fault.Chaos.all_modes
  end;
  Printf.printf "\nwrote %d trace events to %s (open in ui.perfetto.dev)\n"
    (Nest_sim.Trace_export.event_count ex)
    out

let trace_gen users seed out =
  at_least 0 "users" users;
  at_most Nest_traces.Trace_gen.max_users "users" users;
  let trace =
    Seq.take users (Nest_traces.Trace_gen.users ~seed:(Int64.of_int seed))
  in
  match out with
  | None -> ignore (Nest_traces.Trace.output_csv stdout trace)
  | Some path ->
    let oc = open_out path in
    let containers = Nest_traces.Trace.output_csv oc trace in
    close_out oc;
    Printf.printf "wrote %d users (%d containers) to %s\n" users containers
      path

let trace_stats path =
  let users = In_channel.with_open_text path Nest_traces.Trace.input_csv in
  let pods = Nest_sim.Stats.create ~name:"pods/user" () in
  let conts = Nest_sim.Stats.create ~name:"containers/pod" () in
  let cpu = Nest_sim.Stats.create ~name:"cpu/container (rel)" () in
  List.iter
    (fun u ->
      Nest_sim.Stats.add pods (float_of_int (Nest_traces.Trace.user_pods u));
      List.iter
        (fun p ->
          Nest_sim.Stats.add conts
            (float_of_int (List.length p.Nest_traces.Trace.p_containers));
          List.iter
            (fun c -> Nest_sim.Stats.add cpu c.Nest_traces.Trace.c_cpu)
            p.Nest_traces.Trace.p_containers)
        u.Nest_traces.Trace.pods)
    users;
  Printf.printf "users: %d\n" (List.length users);
  List.iter
    (fun s -> Format.printf "%a@." Nest_sim.Stats.pp_summary s)
    [ pods; conts; cpu ]

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shorter measurement windows.")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Fan independent experiment cells (one testbed + workload \
                 each) across $(docv) domains, at most 128.  Results are \
                 identical for any value; only wall-clock time changes.")

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiment ids (fig2..fig15, table1, table2) or 'all'.")

let trace_flag =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Collect per-hop/per-packet event traces and dump them \
                 after the run.")

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Dump a metrics snapshot (counters, gauges, histograms) \
                 per deployed testbed after the run.")

let obs_json =
  Arg.(value & flag
       & info [ "obs-json" ]
           ~doc:"Emit the --trace/--metrics dump as JSON instead of text.")

let trace_capacity =
  Arg.(value & opt int 8192
       & info [ "trace-capacity" ] ~docv:"N"
           ~doc:"Trace ring capacity in events (oldest are dropped; at \
                 most 16777216).")

let run_term =
  let doc = "Run experiments (default: all)." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_cmd $ ids $ quick $ jobs $ trace_flag $ metrics_flag
      $ obs_json $ trace_capacity)

let list_term =
  let doc = "List available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_cmd $ const ())

let obs_term =
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Chrome trace-event JSON output (Perfetto-loadable).")
  in
  let timeline_period =
    Arg.(value & opt int 1000
         & info [ "timeline-period" ] ~docv:"US"
             ~doc:"CPU-timeline sampling period in microseconds of sim \
                   time, at most one hour (3600000000).")
  in
  let prov_sample =
    Arg.(value & opt int 1
         & info [ "prov-sample" ] ~docv:"N"
             ~doc:"Mint one latency-provenance record per $(docv) eligible \
                   packets instead of per packet (1 = every packet).  \
                   Applies to experiment traffic; the timed per-mode probes \
                   always record every packet.  Sampling is deterministic: \
                   the counter advances in send order per namespace, so the \
                   sampled subset is identical across runs and $(b,--jobs) \
                   levels.")
  in
  let obs_ids =
    Arg.(value & pos_all string []
         & info [] ~docv:"EXPERIMENT"
             ~doc:"Experiment ids to run with full collection on (may be \
                   empty: the probes alone still produce a trace).")
  in
  let slo_flag =
    Arg.(value & flag
         & info [ "slo" ]
             ~doc:"Additionally run one fault-free netperf UDP_RR cell per \
                   deployment mode under the live SLO monitor and print \
                   per-mode windowed compliance (availability, p99 latency \
                   ceiling, goodput floor) plus sketch latency percentiles.")
  in
  let run =
    let doc =
      "Run experiments with tracing, metrics, CPU timelines and latency \
       provenance all on; write a Chrome trace and print per-hop latency \
       attribution across deployment modes."
    in
    Cmd.v (Cmd.info "run" ~doc)
      Term.(
        const obs_cmd $ obs_ids $ quick $ out $ trace_capacity
        $ timeline_period $ prov_sample $ slo_flag)
  in
  let doc = "Observability workflows (Perfetto export, latency attribution)." in
  Cmd.group (Cmd.info "obs" ~doc) [ run ]

let chaos_cmd rates seed jobs quick check workload standby =
  check_domains "jobs" jobs;
  let workload =
    match Nest_fault.Chaos.workload_of_string workload with
    | Some w -> w
    | None ->
      Printf.eprintf
        "nestsim: unknown --workload %S (expected probe, rr or memcached)\n"
        workload;
      exit 1
  in
  (* --check runs its own fixed cells, but a bad --rates is still an
     error there. *)
  (match Nest_experiments.Fig_chaos.validate ~rates ~standby with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "nestsim: --%s\n" msg;
    exit 1);
  if check then begin
    if
      not
        (Nest_experiments.Fig_chaos.check ~seed ~jobs ~workload ~standby
           ~quick ())
    then exit 1
  end
  else begin
    Nest_experiments.Exp_util.Par.set_jobs jobs;
    let rates =
      match rates with
      | [] -> Nest_experiments.Fig_chaos.default_rates
      | rs -> rs
    in
    Nest_experiments.Fig_chaos.run ~rates ~seed ~workload ~standby ~quick ()
  end

let chaos_term =
  let rates =
    Arg.(value & opt (list float) []
         & info [ "rates" ] ~docv:"R1,R2,..."
             ~doc:"Management-plane fault rates to sweep (default \
                   0,0.1,0.3,0.5).  Each rate runs all four deployment \
                   modes.")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Testbed seed; the fault plan derives its private \
                   stream from it.  Same seed, same fault timeline.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Determinism guard: run a fixed cell set sequentially, \
                   fanned over --jobs domains, and again sequentially; \
                   exit non-zero unless every cell digest is identical.")
  in
  let workload =
    Arg.(value & opt string "probe"
         & info [ "workload" ] ~docv:"W"
             ~doc:"What the served cell carries: $(b,probe) (UDP echo \
                   probe, the default), $(b,rr) (netperf UDP_RR) or \
                   $(b,memcached) (memtier-shaped closed loops).  Real \
                   workloads additionally report goodput-under-fault \
                   and post-recovery latency percentiles.")
  in
  let standby =
    Arg.(value & opt int 0
         & info [ "standby" ] ~docv:"N"
             ~doc:"Pre-provision N pooled Hostlo endpoints per (VM, \
                   pod) and fail the service over to a surviving VM on \
                   crash, claiming a pooled endpoint instead of paying \
                   QMP hot-plug under faults.  0 disables (default); \
                   other modes ignore it.")
  in
  let doc =
    "Sweep fault rates across deployment modes; report pod-start \
     behaviour under QMP faults (time-to-ready, retries, losses) and \
     service availability with recovery-latency percentiles around VM \
     crashes — optionally with a live workload in the cell."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos_cmd $ rates $ seed $ jobs $ quick $ check
      $ workload $ standby)

(* Resolve a --profile name ("none" or absent means unimpaired links). *)
let resolve_profile = function
  | None -> None
  | Some "none" -> None
  | Some name -> (
    match Nest_net.Wire.profile name with
    | Some p -> Some p
    | None ->
      Printf.eprintf "nestsim: unknown --profile %S (expected %s or none)\n"
        name
        (String.concat ", " (Nest_net.Wire.profile_names ()));
      exit 1)

let profile_arg =
  let open Cmdliner in
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"P"
           ~doc:"Named link profile for the inter-node wires: \
                 $(b,datacenter), $(b,wan), $(b,edge), $(b,lossy) or \
                 $(b,none).  The profile's one-way delay becomes each \
                 wire's latency and lookahead; its loss and jitter are \
                 applied per datagram, per direction, deterministically \
                 for any shard split.  Default ($(b,none)): unimpaired \
                 fixed-latency links.")

let fleet_cmd nodes pods rate arrival shards domains seed quick check profile
    fault_rate standby admission autoscale service_us pods_max frontier =
  at_least 1 "shards" shards;
  check_domains "domains" domains;
  let arrival =
    match arrival with
    | "poisson" -> `Poisson
    | "constant" -> `Constant
    | a ->
      Printf.eprintf
        "nestsim: unknown --arrival %S (expected poisson or constant)\n" a;
      exit 1
  in
  let admission =
    match Nest_experiments.Fig_fleet.admission_of_string admission with
    | Some a -> a
    | None ->
      Printf.eprintf
        "nestsim: unknown --admission %S (expected fixed, burn or codel)\n"
        admission;
      exit 1
  in
  let profile = resolve_profile profile in
  let params =
    { Nest_experiments.Fig_fleet.nodes; pods; rate; arrival; profile;
      fault_rate; standby; admission; autoscale; service_us; pods_max; seed }
  in
  (match Nest_experiments.Fig_fleet.validate params with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "nestsim: --%s\n" msg;
    exit 1);
  if check then begin
    if not (Nest_experiments.Fig_fleet.check ~params ~quick ()) then exit 1
  end
  else if frontier then
    Nest_experiments.Fig_fleet.frontier ~params ~shards ~domains ~quick ()
  else Nest_experiments.Fig_fleet.run ~params ~shards ~domains ~quick ()

let fleet_term =
  let nodes =
    Arg.(value & opt int 8
         & info [ "nodes" ] ~docv:"N"
             ~doc:"Fleet size: $(docv) full single-node testbeds with \
                   heterogeneous deployment modes (NAT, BrFusion, Hostlo \
                   round-robin), at most 16384.")
  in
  let pods =
    Arg.(value & opt int 200
         & info [ "pods" ] ~docv:"P"
             ~doc:"Cluster-trace pods replayed live through the scheduler \
                   over the measurement window (arrivals, exponential \
                   lifetimes, departures; unschedulable arrivals are \
                   counted).")
  in
  let rate =
    Arg.(value & opt float 2000.0
         & info [ "rate" ] ~docv:"R"
             ~doc:"Fleet-wide open-loop arrival rate in requests/s, split \
                   evenly across nodes.  Arrivals never wait for \
                   completions: latency is measured from each request's \
                   scheduled start, so coordinated omission is impossible.")
  in
  let arrival =
    Arg.(value & opt string "poisson"
         & info [ "arrival" ] ~docv:"A"
             ~doc:"Arrival process: $(b,poisson) (default) or \
                   $(b,constant).")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fold the fleet's nodes onto $(docv) conservative \
                   sub-engines (node i on shard i mod $(docv), capped at \
                   the fleet size), synchronised in lookahead windows; \
                   see DESIGN.md.  The digest is identical for any \
                   value.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "jobs"; "domains" ] ~docv:"D"
             ~doc:"OS-level parallelism: pump the shards from $(docv) \
                   domains (capped at the shard count), at most 128.  The \
                   digest is identical for any value.")
  in
  let seed =
    Arg.(value & opt int64 42L
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Root seed; every node, link and churn stream keys off \
                   it, so the outcome is independent of placement.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Determinism guard: digest the scenario at (shards, \
                   domains) = (1,1), (2,1), (2,2), (4,2) and (4,4), shards \
                   capped at the fleet size and domains at the shard count \
                   (a split that collapses onto an earlier one runs once); \
                   exit non-zero unless all digests are byte-identical.")
  in
  let fault_rate =
    Arg.(value & opt float 0.0
         & info [ "fault-rate" ] ~docv:"F"
             ~doc:"Per-link-direction probability of one flap (admin-down \
                   then up) during the window — the fleet-scale chaos \
                   plan.  0 disables (default).")
  in
  let standby =
    Arg.(value & opt int 0
         & info [ "standby" ] ~docv:"S"
             ~doc:"Hostlo standby endpoint pool depth per (VM, pod) on the \
                   fleet's Hostlo nodes (see $(b,chaos --standby)); also \
                   the number of warm (instant-activation) workers per \
                   serving pod pool.")
  in
  let admission =
    Arg.(value & opt string "fixed"
         & info [ "admission" ] ~docv:"POLICY"
             ~doc:"Client-side shed policy: $(b,fixed) (outstanding bound, \
                   default), $(b,burn) (AIMD concurrency limit driven by \
                   the node's latency-SLO burn rate, with hysteresis) or \
                   $(b,codel) (deadline-aware dropping).")
  in
  let autoscale =
    Arg.(value & flag
         & info [ "autoscale" ]
             ~doc:"Per-node pod autoscaling: each serving pool is driven \
                   by a server-side SLO-burn controller (proportional \
                   scale-up, cooled-down one-step scale-down with drain), \
                   bounded by the node's static replica headroom.")
  in
  let service_us =
    Arg.(value & opt float 0.25
         & info [ "service-us" ] ~docv:"US"
             ~doc:"Per-request service cost on a serving pod, in \
                   microseconds.  Raise it to move the fleet's bottleneck \
                   from the network to the pods (and give admission and \
                   autoscaling something to fight).  At most 1 s \
                   (1000000).")
  in
  let pods_max =
    Arg.(value & opt int 4
         & info [ "pods-max" ] ~docv:"K"
             ~doc:"Per-node serving-pool ceiling; the effective maximum is \
                   further clamped by the node's remaining capacity at \
                   setup (Autopilot replica headroom).")
  in
  let frontier =
    Arg.(value & flag
         & info [ "frontier" ]
             ~doc:"Shedding-vs-scaling sweep: degraded link profiles (wan, \
                   lossy, flaky) crossed with the admission x autoscaling \
                   grid; one row per (link, control, mode).")
  in
  let doc =
    "Fleet-scale trace replay: open-loop load generation (intended-start \
     timestamping, pluggable SLO-burn admission control) across a \
     heterogeneous sharded fleet with per-node pod autoscaling, plus a \
     live cluster-trace churning through the scheduler — per-mode SLO \
     compliance and merged HDR percentiles."
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const fleet_cmd $ nodes $ pods $ rate $ arrival $ shards $ domains
      $ seed $ quick $ check $ profile_arg $ fault_rate $ standby $ admission
      $ autoscale $ service_us $ pods_max $ frontier)

let trace_term =
  let users =
    Arg.(value & opt int 492
         & info [ "users" ] ~doc:"Number of users, at most 100000.")
  in
  let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"PRNG seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~doc:"Output file.")
  in
  let action =
    Arg.(value & pos 0 (enum [ ("gen", `Gen); ("stats", `Stats) ]) `Gen
           & info [] ~docv:"ACTION")
  in
  let file =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let doc = "Generate or summarize synthetic cluster traces." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const (fun action users seed out file ->
          match action with
          | `Gen -> or_exit (fun () -> trace_gen users seed out)
          | `Stats -> (
            match file with
            | Some f -> or_exit (fun () -> trace_stats f)
            | None ->
              prerr_endline "nestsim: trace stats: FILE required";
              Stdlib.exit 1))
      $ action $ users $ seed $ out $ file)

let main =
  let doc = "Nested Virtualization Without the Nest — experiment driver" in
  Cmd.group
    (Cmd.info "nestsim" ~version:"1.0.0" ~doc)
    ~default:Term.(const (fun () -> list_cmd ()) $ const ())
    [ run_term; list_term; obs_term; chaos_term; fleet_term;
      trace_term ]

let () = exit (Cmd.eval main)
