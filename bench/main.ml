(* Benchmark harness.

   Two parts:
   1. the experiment harness — regenerates every table and figure of the
      paper's evaluation (the same registry bin/nestsim drives);
   2. a Bechamel micro-suite with one [Test.make] per table/figure, each
      wrapping that experiment's computational kernel at reduced scale,
      plus two engine primitives — so regressions in simulator
      performance are visible independently of the result tables.

   Usage:
     dune exec bench/main.exe                 # all tables+figures + micro
     dune exec bench/main.exe -- --quick      # shorter measurement windows
     dune exec bench/main.exe -- --micro-only # skip the tables
     dune exec bench/main.exe -- fig4 fig9    # a subset *)

open Nest_experiments
module Time = Nest_sim.Time

(* ------------------------------------------------------------------ *)
(* Experiment kernels for the micro-suite.                             *)

let kernel_netperf_single ~mode () =
  let tb, site = Exp_util.deploy_single_sync ~mode ~port:7000 () in
  let ep = Nest_workloads.App.of_single tb site in
  ignore
    (Nest_workloads.Netperf.tcp_stream tb ep ~msg_size:1280
       ~warmup:(Time.ms 5) ~duration:(Time.ms 20) ())

let kernel_netperf_pair ~mode () =
  let tb, site = Exp_util.deploy_pair_sync ~mode ~port:7000 () in
  let ep = Nest_workloads.App.of_pair site in
  ignore
    (Nest_workloads.Netperf.udp_rr tb ep ~msg_size:1024 ~warmup:(Time.ms 5)
       ~duration:(Time.ms 20) ())

let kernel_macro_memcached () =
  let tb, site = Exp_util.deploy_single_sync ~mode:`Nat ~port:11211 () in
  let ep = Nest_workloads.App.of_single tb site in
  ignore
    (Nest_workloads.Memcached.run tb ep ~warmup:(Time.ms 5)
       ~duration:(Time.ms 20) ())

let kernel_macro_nginx () =
  let tb, site = Exp_util.deploy_single_sync ~mode:`Brfusion ~port:80 () in
  let ep = Nest_workloads.App.of_single tb site in
  ignore
    (Nest_workloads.Nginx.run tb ep ~containerized:true ~warmup:(Time.ms 5)
       ~duration:(Time.ms 20) ())

let kernel_macro_kafka () =
  let tb, site = Exp_util.deploy_single_sync ~mode:`NoCont ~port:9092 () in
  let ep = Nest_workloads.App.of_single tb site in
  ignore
    (Nest_workloads.Kafka.run tb ep ~warmup:(Time.ms 5) ~duration:(Time.ms 20)
       ())

let kernel_cpu_breakdown () =
  let tb, site = Exp_util.deploy_pair_sync ~mode:`Hostlo ~port:11211 () in
  let ep = Nest_workloads.App.of_pair site in
  let before = Nest_workloads.App.Cpu_snap.take tb.Nestfusion.Testbed.acct in
  ignore
    (Nest_workloads.Memcached.run tb ep ~warmup:(Time.ms 5)
       ~duration:(Time.ms 20) ());
  let after = Nest_workloads.App.Cpu_snap.take tb.Nestfusion.Testbed.acct in
  ignore
    (Nest_workloads.App.Cpu_snap.diff_cores ~before ~after ~entity:"vm1"
       Nest_sim.Cpu_account.Soft ~window:(Time.ms 25))

let kernel_boot () =
  ignore (Fig_boot.boot_samples ~mode:`Brfusion ~runs:3 ~seed:11L)

let kernel_table1 () =
  ignore (List.length Nest_workloads.Netperf.default_sizes)

let kernel_table2 () =
  List.iter
    (fun (_, _, _, rc, rm, price) -> ignore (rc +. rm +. price))
    Nest_costsim.Aws.table2_rows

let kernel_costsim () =
  let users = Nest_traces.Trace_gen.generate ~seed:5L ~users:12 in
  ignore (Nest_costsim.Report.evaluate users)

let kernel_engine_events () =
  let e = Nest_sim.Engine.create () in
  for i = 1 to 1_000 do
    Nest_sim.Engine.schedule e ~delay:i (fun () -> ())
  done;
  Nest_sim.Engine.run e

(* Timing-wheel churn shaped like the event loop: seed a batch, then
   every extraction schedules one near-future follow-up.  Near-future
   pushes are the wheel's O(1) case. *)
let kernel_exec_queue_wheel () =
  let w = Nest_sim.Wheel.create () in
  let pushed = ref 0 in
  let push ~prio v =
    incr pushed;
    Nest_sim.Wheel.push w ~prio v
  in
  for i = 1 to 256 do
    push ~prio:(i * 13) i
  done;
  let rec loop () =
    match Nest_sim.Wheel.pop w with
    | None -> ()
    | Some (p, v) ->
      if !pushed < 5_000 then push ~prio:(p + 1 + ((v * 7) land 1023)) (v + 1);
      loop ()
  in
  loop ()

(* Exactly-once hot-plug: every first Device_add loses its ack after
   applying (Partial_timeout), so every retry answers from the reply
   journal — measures the journal's lookup/insert cost riding the
   management path, plus the hot-plug round-trips themselves. *)
let kernel_qmp_dedupe () =
  let tb = Nestfusion.Testbed.create () in
  Nestfusion.Testbed.run_until tb (Time.ms 1);
  let vmm = tb.Nestfusion.Testbed.vmm in
  let vm = Nestfusion.Testbed.vm tb 0 in
  let seen = Hashtbl.create 64 in
  Nest_virt.Vmm.set_qmp_fault vmm
    (Some
       (fun ~vm:_ cmd ->
         match cmd with
         | Nest_virt.Qmp.Device_add { id; _ } when not (Hashtbl.mem seen id) ->
           Hashtbl.add seen id ();
           Nest_virt.Vmm.Partial_timeout (Time.ms 1)
         | _ -> Nest_virt.Vmm.Pass));
  for i = 1 to 32 do
    let id = "bench-" ^ string_of_int i in
    Nest_virt.Vmm.execute vmm ~vm
      (Nest_virt.Qmp.Netdev_add { id; bridge = "virbr0" })
      (fun _ ->
        let cmd = Nest_virt.Qmp.Device_add { id; netdev = id } in
        Nest_virt.Vmm.execute vmm ~vm cmd (fun _ ->
            Nest_virt.Vmm.execute vmm ~vm cmd (fun _ -> ())))
  done;
  Nestfusion.Testbed.run_until tb (Time.sec 1)

let kernel_conntrack () =
  let ct = Nest_net.Conntrack.create () in
  let nat_ip = Nest_net.Ipv4.of_string "10.0.0.1" in
  for i = 1 to 200 do
    let pkt =
      Nest_net.Packet.make
        ~src:(Nest_net.Ipv4.of_int (0x0a000000 + i))
        ~dst:(Nest_net.Ipv4.of_string "10.0.0.2")
        (Nest_net.Packet.Udp
           { src_port = 1000 + i; dst_port = 53;
             payload = Nest_net.Payload.raw 64 })
    in
    ignore (Nest_net.Conntrack.snat ct pkt ~to_ip:nat_ip)
  done

(* PR-10 admission overhead: the same open-loop generator against an
   instant-ish dispatcher under each shed policy.  The decision must be
   O(1) per arrival — burn adds only its window ticks, codel only an
   engine-clock read — so the in-run gate compares burn/codel against
   the fixed-bound kernel and catches an accidental O(outstanding)
   slip. *)
let kernel_admission admission () =
  let open Nest_sim in
  let open Nest_loadgen in
  let engine = Engine.create () in
  let g = ref None in
  let gen =
    Loadgen.create ~engine
      ~arrival:(Arrival.constant ~rate_per_s:200_000.0)
      ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 7L) ?admission
      ~burn_source:(fun () -> 0.5)
      ~dispatch:(fun ~seq ~size:_ ->
        Engine.schedule engine ~delay:(Time.us 10) (fun () ->
            Loadgen.complete (Option.get !g) ~seq))
      ~start:(Time.ms 1) ~stop:(Time.ms 21) ()
  in
  g := Some gen;
  Engine.run engine

let kernel_admission_fixed = kernel_admission None

let kernel_admission_burn =
  kernel_admission
    (Some (Nest_loadgen.Admission.burn ~window:(Nest_sim.Time.ms 1) ()))

let kernel_admission_codel =
  kernel_admission
    (Some
       (Nest_loadgen.Admission.codel ~target_us:5000.0
          ~interval:(Nest_sim.Time.ms 1) ()))

let micro_tests =
  let open Bechamel in
  [ Test.make ~name:"fig2:netperf-nat"
      (Staged.stage (kernel_netperf_single ~mode:`Nat));
    Test.make ~name:"table1:workload-parameters" (Staged.stage kernel_table1);
    Test.make ~name:"fig4:netperf-brfusion"
      (Staged.stage (kernel_netperf_single ~mode:`Brfusion));
    Test.make ~name:"fig5:kafka" (Staged.stage kernel_macro_kafka);
    Test.make ~name:"fig6:cpu-breakdown" (Staged.stage kernel_cpu_breakdown);
    Test.make ~name:"fig7:nginx" (Staged.stage kernel_macro_nginx);
    Test.make ~name:"fig8:boot" (Staged.stage kernel_boot);
    Test.make ~name:"table2:aws-models" (Staged.stage kernel_table2);
    Test.make ~name:"fig9:costsim" (Staged.stage kernel_costsim);
    Test.make ~name:"fig10:netperf-hostlo"
      (Staged.stage (kernel_netperf_pair ~mode:`Hostlo));
    Test.make ~name:"fig11:memcached" (Staged.stage kernel_macro_memcached);
    Test.make ~name:"fig12:netperf-samenode"
      (Staged.stage (kernel_netperf_pair ~mode:`SameNode));
    Test.make ~name:"fig13:netperf-overlay"
      (Staged.stage (kernel_netperf_pair ~mode:`Overlay));
    Test.make ~name:"fig15:netperf-natx"
      (Staged.stage (kernel_netperf_pair ~mode:`NatX));
    Test.make ~name:"engine:1k-events" (Staged.stage kernel_engine_events);
    Test.make ~name:"exec_queue:wheel" (Staged.stage kernel_exec_queue_wheel);
    Test.make ~name:"net:conntrack-snat" (Staged.stage kernel_conntrack);
    Test.make ~name:"vmm:qmp-dedupe" (Staged.stage kernel_qmp_dedupe);
    Test.make ~name:"admission:fixed" (Staged.stage kernel_admission_fixed);
    Test.make ~name:"admission:burn" (Staged.stage kernel_admission_burn);
    Test.make ~name:"admission:codel" (Staged.stage kernel_admission_codel) ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_newline ();
  print_endline "== Bechamel micro-suite (one Test.make per table/figure) ==";
  let grouped = Test.make_grouped ~name:"paper" micro_tests in
  let cfg =
    Benchmark.cfg ~limit:60 ~quota:(Bechamel.Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o ->
        let est =
          match Analyze.OLS.estimates o with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        fun acc -> (name, est) :: acc)
      results []
    (* Sort on the name alone: the estimate is a float that can be NaN,
       and polymorphic compare over a NaN pair is unordered garbage. *)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-42s %16s\n" "kernel" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%10.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%10.2f us" (ns /. 1e3)
        else Printf.sprintf "%10.0f ns" ns
      in
      Printf.printf "%-42s %16s\n" name human)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Observability overhead: the same netperf kernel at three collection
   levels — everything off, tracing+metrics, tracing+metrics+per-packet
   latency provenance.  The disabled figure is the one that matters (the
   instrumentation rides the per-event/per-packet hot paths and must be
   ~free when nothing is collecting); the enabled figures show what a
   [--trace --metrics] run and a full `nestsim obs` run cost. *)

(* Provenance sampling period used for the fourth overhead row (and
   recorded in the JSON document next to its timing). *)
let prov_sample_period = 16

let run_overhead () =
  print_newline ();
  print_endline
    "== Observability overhead (netperf kernel, off / trace+metrics / \
     +provenance / +sampled provenance) ==";
  let reps = 9 in
  let kernel = kernel_netperf_single ~mode:`Nat in
  (* (trace, metrics, provenance, prov_sample) per collection level. *)
  let configs =
    [| (false, false, false, 1);
       (true, true, false, 1);
       (true, true, true, 1);
       (true, true, true, prov_sample_period) |]
  in
  let once c =
    let trace, metrics, provenance, prov_sample = configs.(c) in
    Exp_util.Obs.configure ~trace ~metrics ~provenance ~prov_sample ();
    let t0 = Unix.gettimeofday () in
    kernel ();
    let dt = Unix.gettimeofday () -. t0 in
    Exp_util.Obs.discard ();
    dt
  in
  (* One untimed warmup round absorbs allocator/startup noise.  Then
     best-of-N with the four levels interleaved round-robin: a
     shared/virtualized host injects multi-ms noise in epochs, so
     interleaving exposes every level to the same conditions and the
     per-level minimum is the run the machine didn't interrupt —
     measuring each level in its own block would let one quiet or busy
     epoch skew a single level and corrupt the ratios. *)
  for c = 0 to Array.length configs - 1 do
    ignore (once c)
  done;
  Gc.compact ();
  let best = Array.make (Array.length configs) infinity in
  for _ = 1 to reps do
    for c = 0 to Array.length configs - 1 do
      let dt = once c in
      if dt < best.(c) then best.(c) <- dt
    done
  done;
  let off = best.(0) and tm = best.(1) and tmp = best.(2) and tmps = best.(3) in
  Exp_util.Obs.configure ~trace:false ~metrics:false ~provenance:false
    ~prov_sample:1 ();
  let overhead v = if off > 0.0 then 100.0 *. (v -. off) /. off else 0.0 in
  Printf.printf "%-42s %10.2f ms\n" "collection disabled" (off *. 1e3);
  Printf.printf "%-42s %10.2f ms  (%+.1f %%)\n" "tracing+metrics" (tm *. 1e3)
    (overhead tm);
  Printf.printf "%-42s %10.2f ms  (%+.1f %%)\n" "tracing+metrics+provenance"
    (tmp *. 1e3) (overhead tmp);
  Printf.printf "%-42s %10.2f ms  (%+.1f %%)\n"
    (Printf.sprintf "  ... provenance sampled 1/%d" prov_sample_period)
    (tmps *. 1e3) (overhead tmps);
  (off, tm, tmp, tmps)

(* ------------------------------------------------------------------ *)
(* Domain fan-out: the same cell sweep at jobs=1 and jobs=N, with a
   result-identity check — parallelism must only change wall-clock. *)

type jobs_scaling = {
  js_jobs : int;
  js_serial_s : float;
  js_parallel_s : float;
  js_identical : bool;
}

(* A 1-core host (common on shared CI runners) cannot speed anything up;
   asserting a ratio there only manufactures noise.  The speedup is
   still recorded — the gate reads host_cores and decides. *)
let speedup_gated () = Nest_sim.Domain_pool.recommended_jobs () >= 4

let run_jobs_scaling ~jobs () =
  print_newline ();
  Printf.printf "== Domain fan-out (netperf cell sweep, jobs=1 vs jobs=%d) ==\n"
    jobs;
  let sizes = [ 64; 1024; 4096; 16384 ] in
  let timed ~j =
    Exp_util.Par.set_jobs j;
    let t0 = Unix.gettimeofday () in
    let pts = Fig_netperf.sweep_single ~quick:true ~mode:`Nat ~sizes in
    (Unix.gettimeofday () -. t0, pts)
  in
  let serial_s, p1 = timed ~j:1 in
  let parallel_s, pn = timed ~j:jobs in
  Exp_util.Par.set_jobs jobs;
  let identical = p1 = pn in
  Printf.printf "%-42s %10.2f s\n" "jobs=1" serial_s;
  Printf.printf "%-42s %10.2f s  (%.2fx)\n"
    (Printf.sprintf "jobs=%d" jobs)
    parallel_s
    (if parallel_s > 0.0 then serial_s /. parallel_s else 0.0);
  Printf.printf "%-42s %s\n" "results identical"
    (if identical then "yes" else "NO — DETERMINISM VIOLATION");
  if not (speedup_gated ()) then
    Printf.printf
      "%-42s (host has %d core(s): speedup recorded but not asserted)\n" ""
      (Nest_sim.Domain_pool.recommended_jobs ());
  { js_jobs = jobs; js_serial_s = serial_s; js_parallel_s = parallel_s;
    js_identical = identical }

(* ------------------------------------------------------------------ *)
(* Sharded-engine scaling: the open-loop fleet (fig_fleet) at 40k req/s
   — enough work (about 300k events) for the wall time to mean
   something — at shards=1 against shards=4 pumped by several domains,
   with the digest identity that makes the comparison meaningful: the
   partitioned run must be byte-identical, only wall-clock may move. *)

type shard_scaling = {
  sh_shards : int;
  sh_domains : int;
  sh_serial_s : float;
  sh_parallel_s : float;
  sh_identical : bool;
}

let run_shard_scaling () =
  print_newline ();
  let cores = Nest_sim.Domain_pool.recommended_jobs () in
  let params = { Fig_fleet.default_params with Fig_fleet.rate = 40000.0 } in
  let shards = 4 in
  let domains = max 1 (min shards cores) in
  Printf.printf
    "== Sharded engine (fleet, %d nodes at %.0f req/s, shards=1 vs \
     shards=%d domains=%d) ==\n"
    params.Fig_fleet.nodes params.Fig_fleet.rate shards domains;
  let timed ~shards ~domains =
    let t0 = Unix.gettimeofday () in
    let d = Fig_fleet.digest ~params ~shards ~domains ~quick:true () in
    (Unix.gettimeofday () -. t0, d)
  in
  let serial_s, d1 = timed ~shards:1 ~domains:1 in
  let parallel_s, dn = timed ~shards ~domains in
  let identical = String.equal d1 dn in
  Printf.printf "%-42s %10.2f s\n" "shards=1 domains=1" serial_s;
  Printf.printf "%-42s %10.2f s  (%.2fx)\n"
    (Printf.sprintf "shards=%d domains=%d" shards domains)
    parallel_s
    (if parallel_s > 0.0 then serial_s /. parallel_s else 0.0);
  Printf.printf "%-42s %s\n" "digests identical"
    (if identical then "yes" else "NO — DETERMINISM VIOLATION");
  if not (speedup_gated ()) then
    Printf.printf
      "%-42s (host has %d core(s): speedup recorded but not asserted)\n" ""
      cores;
  { sh_shards = shards; sh_domains = domains; sh_serial_s = serial_s;
    sh_parallel_s = parallel_s; sh_identical = identical }

(* ------------------------------------------------------------------ *)
(* Machine-readable output (--json PATH): micro rows, observability
   overhead and fan-out scaling as one BENCH_*.json document. *)

let write_json ~path ~rows ~overhead ~scaling ~shard_scaling =
  let esc = Nest_sim.Trace.json_escape in
  let b = Buffer.create 4096 in
  let fl v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
  Buffer.add_string b "{\n  \"schema\": \"nestsim-bench/1\",\n";
  Buffer.add_string b "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
           (esc name) (fl ns)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ],\n";
  (* The admission kernels again as one named row group, so the CI gate
     and PR-over-PR diffs do not have to fish them out of [micro]. *)
  (match List.assoc_opt "paper/admission:fixed" rows with
  | Some fixed ->
    let get n = match List.assoc_opt n rows with Some v -> v | None -> nan in
    Buffer.add_string b
      (Printf.sprintf
         "  \"admission_overhead\": {\"fixed_ns\": %s, \"burn_ns\": %s, \
          \"codel_ns\": %s},\n"
         (fl fixed)
         (fl (get "paper/admission:burn"))
         (fl (get "paper/admission:codel")))
  | None -> ());
  (match overhead with
  | None -> ()
  | Some (off, tm, tmp, tmps) ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"observability_overhead_ms\": {\"disabled\": %s, \
          \"trace_metrics\": %s, \"trace_metrics_provenance\": %s, \
          \"trace_metrics_provenance_sampled\": %s, \
          \"provenance_sampling\": %d},\n"
         (fl (off *. 1e3)) (fl (tm *. 1e3)) (fl (tmp *. 1e3))
         (fl (tmps *. 1e3)) prov_sample_period));
  (match scaling with
  | None -> ()
  | Some s ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"jobs_scaling\": {\"jobs\": %d, \"serial_s\": %s, \
          \"parallel_s\": %s, \"speedup\": %s, \"recommended_domains\": %d, \
          \"host_cores\": %d, \"identical\": %b},\n"
         s.js_jobs (fl s.js_serial_s) (fl s.js_parallel_s)
         (fl
            (if s.js_parallel_s > 0.0 then s.js_serial_s /. s.js_parallel_s
             else 0.0))
         (Nest_sim.Domain_pool.recommended_jobs ())
         (Nest_sim.Domain_pool.recommended_jobs ())
         s.js_identical));
  (match shard_scaling with
  | None -> ()
  | Some s ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"shard_scaling\": {\"shards\": %d, \"domains\": %d, \
          \"serial_s\": %s, \"parallel_s\": %s, \"speedup\": %s, \
          \"host_cores\": %d, \"identical\": %b},\n"
         s.sh_shards s.sh_domains (fl s.sh_serial_s) (fl s.sh_parallel_s)
         (fl
            (if s.sh_parallel_s > 0.0 then s.sh_serial_s /. s.sh_parallel_s
             else 0.0))
         (Nest_sim.Domain_pool.recommended_jobs ())
         s.sh_identical));
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d\n}\n"
       (Nest_sim.Domain_pool.recommended_jobs ()));
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Ratio gate against a committed BENCH_*.json: the engine's event-loop
   primitive must not quietly regress from PR to PR.  The threshold is
   generous (CI machines differ from the machine that wrote the
   baseline); it catches the order-of-magnitude slips, not noise. *)

let baseline_ratio_limit = 1.6

let baseline_ns ~path ~name =
  match
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let needle = Printf.sprintf "\"name\": \"%s\", \"ns_per_run\": " name in
    let rec find i =
      if i + String.length needle > String.length s then None
      else if String.sub s i (String.length needle) = needle then
        let j = i + String.length needle in
        let k = ref j in
        while
          !k < String.length s
          && (match s.[!k] with '0' .. '9' | '.' | '-' | 'e' -> true
              | _ -> false)
        do
          incr k
        done;
        float_of_string_opt (String.sub s j (!k - j))
      else find (i + 1)
    in
    find 0
  with
  | exception Sys_error _ -> None
  | v -> v

let check_baseline_row ~rows ~path ~name =
  match (baseline_ns ~path ~name, List.assoc_opt name rows) with
  | None, _ ->
    Printf.printf "baseline: %s has no %s row; gate skipped\n" path name;
    true
  | _, (None | Some _) when List.assoc_opt name rows = None ->
    Printf.printf "baseline: current run has no %s row; gate skipped\n" name;
    true
  | Some base, Some cur when not (Float.is_nan cur) ->
    let ratio = cur /. base in
    Printf.printf
      "baseline %s: %s %.1f us -> %.1f us (%.2fx, limit %.2fx): %s\n" path
      name (base /. 1e3) (cur /. 1e3) ratio baseline_ratio_limit
      (if ratio <= baseline_ratio_limit then "ok" else "REGRESSION");
    ratio <= baseline_ratio_limit
  | Some _, _ ->
    Printf.printf "baseline: current %s estimate is n/a; gate skipped\n" name;
    true

(* The event-loop primitive from the original gate, plus the PR-10
   admission kernel (skipped cleanly against baselines that predate
   it). *)
let check_baseline ~rows ~path =
  List.for_all
    (fun name -> check_baseline_row ~rows ~path ~name)
    [ "paper/engine:1k-events"; "paper/admission:fixed" ]

(* In-run admission-overhead gate: machine-independent because both
   sides come from the same run.  Burn and codel may pay their window
   ticks and clock reads, but an O(outstanding) or per-arrival
   allocation slip shows up as a ratio blowout. *)
let admission_ratio_limit = 3.0

let check_admission_overhead ~rows =
  let get n =
    match List.assoc_opt n rows with
    | Some v when not (Float.is_nan v) -> Some v
    | _ -> None
  in
  match get "paper/admission:fixed" with
  | None ->
    print_endline "admission_overhead: no fixed row; gate skipped";
    true
  | Some fixed ->
    List.for_all
      (fun name ->
        match get name with
        | None ->
          Printf.printf "admission_overhead: no %s row; gate skipped\n" name;
          true
        | Some cur ->
          let ratio = cur /. fixed in
          Printf.printf
            "admission_overhead: %s %.1f us vs fixed %.1f us (%.2fx, limit \
             %.2fx): %s\n"
            name (cur /. 1e3) (fixed /. 1e3) ratio admission_ratio_limit
            (if ratio <= admission_ratio_limit then "ok" else "REGRESSION");
          ratio <= admission_ratio_limit)
      [ "paper/admission:burn"; "paper/admission:codel" ]

let usage () =
  prerr_endline
    "usage: bench [--quick] [--micro-only] [--overhead-only] [--jobs N] \
     [--json PATH] [--baseline BENCH.json] [--no-shards] [EXPERIMENT...]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let jobs = ref 1 and json = ref None in
  let quick = ref false and micro_only = ref false in
  let overhead_only = ref false in
  let baseline = ref None and no_shards = ref false in
  let rec parse ids = function
    | [] -> List.rev ids
    | "--quick" :: rest -> quick := true; parse ids rest
    | "--micro-only" :: rest -> micro_only := true; parse ids rest
    | "--overhead-only" :: rest -> overhead_only := true; parse ids rest
    | "--no-shards" :: rest -> no_shards := true; parse ids rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j > 0 -> jobs := j; parse ids rest
      | _ -> usage ())
    | "--json" :: path :: rest -> json := Some path; parse ids rest
    | "--baseline" :: path :: rest -> baseline := Some path; parse ids rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> usage ()
    | a :: rest -> parse (a :: ids) rest
  in
  let ids = parse [] args in
  let quick = !quick and micro_only = !micro_only and jobs = !jobs in
  Exp_util.Par.set_jobs jobs;
  if !overhead_only then begin
    (* Just the observability-overhead rows (the CI regression gate's
       input), skipping the micro suite and the table regeneration. *)
    let overhead = Some (run_overhead ()) in
    (match !json with
    | None -> ()
    | Some path ->
      write_json ~path ~rows:[] ~overhead ~scaling:None ~shard_scaling:None);
    exit 0
  end;
  if not micro_only then begin
    match ids with
    | [] -> Registry.run_all ~jobs ~quick ()
    | ids ->
      List.iter
        (fun id ->
          match Registry.find id with
          | Some e -> e.Registry.run ~quick
          | None -> Printf.eprintf "bench: unknown experiment %S (skipped)\n" id)
        ids
  end;
  let rows = run_micro () in
  let overhead = Some (run_overhead ()) in
  let scaling =
    if jobs > 1 then Some (run_jobs_scaling ~jobs ()) else None
  in
  let shard_scaling =
    if !no_shards then None else Some (run_shard_scaling ())
  in
  (match !json with
  | None -> ()
  | Some path ->
    write_json ~path ~rows ~overhead ~scaling ~shard_scaling);
  let ok = ref true in
  (match !baseline with
  | None -> ()
  | Some path -> if not (check_baseline ~rows ~path) then ok := false);
  if not (check_admission_overhead ~rows) then ok := false;
  (* The digest identities are exact and machine-independent: always
     gated.  Speedup ratios are only gated on hosts with enough cores
     to make them meaningful (see [speedup_gated]). *)
  (match shard_scaling with
  | Some s when not s.sh_identical ->
    print_endline "bench: FAIL — sharded digest mismatch";
    ok := false
  | Some s
    when speedup_gated () && s.sh_parallel_s > 0.0
         && s.sh_serial_s /. s.sh_parallel_s < 1.0 ->
    print_endline "bench: FAIL — sharded run slower than serial on a multicore host";
    ok := false
  | _ -> ());
  (match scaling with
  | Some s when not s.js_identical ->
    print_endline "bench: FAIL — jobs fan-out result mismatch";
    ok := false
  | _ -> ());
  print_newline ();
  print_endline (if !ok then "bench: done." else "bench: FAILED");
  if not !ok then exit 1
