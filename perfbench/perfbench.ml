(* perfbench: the repository benchmark (see README.md beside this file).

   One process runs one workload, either untraced (--trace 0: the
   end-to-end metrics) or alternating untraced and traced repetitions
   (--trace 1: the per-layer metrics, with the tracing overhead as the
   gap between the two).  Every repetition rebuilds its scenario from
   the seed, so each one is a fixed unit of simulated work; host times
   are medians over repetitions, and the exact work counters (events,
   allocated words) are the same in every repetition of a
   single-domain workload.

   The program is entered only through public functions:
   [Exp_util.deploy_*_sync], [Netperf.udp_rr], [Memcached.run],
   [Fig_fleet.summarize] and [Fig_fleet.run].  Layer counters are read
   by name from [Metrics.snapshot] and from the shard table that
   [Fig_fleet.run] prints, never through mechanism-specific calls, so
   a counter family that disappears from the program shows up here as
   absent rather than as 0. *)

open Nestfusion
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Metrics = Nest_sim.Metrics
module Stats = Nest_sim.Stats
module Exp_util = Nest_experiments.Exp_util
module Fig_fleet = Nest_experiments.Fig_fleet
module Netperf = Nest_workloads.Netperf
module Memcached = Nest_workloads.Memcached
module App = Nest_workloads.App

(* The seed at which every workload's result digest is pinned.  The
   figures use the same default, so these digests change only when the
   simulation's results change. *)
let reference_seed = 42L

let reference_digests =
  [ ("rr_nat", "6dd36ebb973809a1164de3b239020fea");
    ("memcached_overlay", "9a80514e76dc790f39859d45b7297123");
    ("fleet_256", "158bd18c3dc917177543cf5e4b6a6dcf");
    ("fleet_16_2dom", "9ec7d48e8f75656301b96c7a57d3bf1a") ]

(* ---- host measurements ------------------------------------------- *)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* GC pauses, from the runtime's own event rings.  Collection is
   started on the first traced repetition and paused outside traced
   repetitions, so untraced repetitions never pay for it.  A pause is
   any interval a domain spends inside a minor collection or a major
   slice (nested phases are counted once). *)
module Gc_pause = struct
  let cursor = ref None
  let depth = Hashtbl.create 4
  let total = ref 0.0
  let lost = ref 0

  let is_pause = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE
    | Runtime_events.EV_MAJOR_FINISH_CYCLE
    | Runtime_events.EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
    | _ -> false

  let ns ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts ph ->
        if is_pause ph then
          match Hashtbl.find_opt depth ring with
          | Some (d, t0) when d > 0 -> Hashtbl.replace depth ring (d + 1, t0)
          | _ -> Hashtbl.replace depth ring (1, ns ts))
      ~runtime_end:(fun ring ts ph ->
        if is_pause ph then
          match Hashtbl.find_opt depth ring with
          | Some (1, t0) ->
            Hashtbl.replace depth ring (0, 0.0);
            total := !total +. ((ns ts -. t0) /. 1e9)
          | Some (d, t0) when d > 1 -> Hashtbl.replace depth ring (d - 1, t0)
          | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let drain () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let start () =
    (match !cursor with
    | None ->
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
    | Some _ -> Runtime_events.resume ());
    drain ();
    Hashtbl.reset depth;
    total := 0.0

  let stop () =
    Runtime_events.pause ();
    drain ();
    !total
end

type phase = {
  wall : float;
  cpu : float;        (* user + sys over all domains *)
  words : float;      (* allocated: minor + major - promoted *)
  promoted : float;
  minors : int;
  majors : int;
  pause : float;      (* traced only *)
}

(* The minor collections on both sides make the Gc counters exact
   (they otherwise lag by up to one minor heap) and start every phase
   from an empty minor heap. *)
let timed ~traced f =
  Gc.minor ();
  if traced then Gc_pause.start ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () and w0 = now () in
  let r = f () in
  let w1 = now () and c1 = cpu_now () in
  let pause = if traced then Gc_pause.stop () else 0.0 in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  ( r,
    { wall = w1 -. w0; cpu = c1 -. c0; words = alloc g1 -. alloc g0;
      promoted = g1.promoted_words -. g0.promoted_words;
      minors = g1.minor_collections - g0.minor_collections;
      majors = g1.major_collections - g0.major_collections; pause } )

(* The host's speed drifts: on the 2-core VM this benchmark was tuned
   on, a fixed loop runs up to 40 % slower for tens of seconds at a
   time, and the simulator slows with it (CPU time tracks wall time, so
   the loss is not scheduling).  A fixed integer loop, timed between
   repetitions, measures that drift; every host time is reported at the
   reference speed, as raw seconds x [reference_kernel_s] / the loop's
   time around that repetition.  The loop neither allocates nor touches
   memory, so no change to the simulator can move it. *)
let reference_kernel_s = 0.0128

(* Median of five short timings, so that one interrupted timing does
   not skew the factor. *)
let speed_kernel () =
  let once () =
    let t0 = now () in
    let s = ref 0 in
    for j = 0 to 1_999_999 do
      s := !s + ((j * j) lxor (j lsr 3))
    done;
    ignore (Sys.opaque_identity !s);
    now () -. t0
  in
  let a = Array.init 5 (fun _ -> once ()) in
  Array.sort Float.compare a;
  5.0 *. a.(2)

let last_kernel = ref None

(* [f ()] between two loop timings (the first shared with the previous
   call), with the speed factor that scales its host times. *)
let at_reference_speed f =
  let before =
    match !last_kernel with Some k -> k | None -> speed_kernel ()
  in
  let r = f () in
  let after = speed_kernel () in
  last_kernel := Some after;
  (r, reference_kernel_s /. ((before +. after) /. 2.0))

(* ---- one repetition ----------------------------------------------- *)

type rep = {
  attempted : int;    (* simulated ops attempted *)
  completed : int;
  sim_failed : int;   (* simulated shed + lost *)
  digest : string;
  events : int option;
  ph : phase;         (* the measured phase *)
  deploy_s : float option;
  warmup_s : float option;
  layers : (string * float option) list;  (* traced only; None = absent *)
}

let digest_of parts = Digest.to_hex (Digest.string (String.concat ";" parts))

let samples_digest head latency =
  digest_of
    (head
    @ Array.to_list (Array.map (Printf.sprintf "%h") (Stats.samples latency)))

let counter_values engine =
  List.filter_map
    (fun (n, v) ->
      match v with
      | Metrics.Counter c -> Some (n, float_of_int c)
      | Metrics.Gauge g -> Some (n, g)
      | Metrics.Summary _ -> None)
    (Metrics.snapshot (Engine.metrics engine))

let has_prefix prefix s = String.starts_with ~prefix s
let has_suffix suffix s = String.ends_with ~suffix s

(* Sum over the counters that [pick] selects; None when none exists. *)
let sum_named pick deltas =
  List.fold_left
    (fun acc (n, v) ->
      if pick n then Some (v +. Option.value acc ~default:0.0) else acc)
    None deltas

(* Engine.profile label classes: the Exec contexts name themselves
   "<owner>:softirq" / ":soft", "vhost-<vm>", "<owner>:sys" and
   "<pod>:app"; application worker pools ("memtier-w0", "mc-w1",
   "server-client") carry no colon.  Everything else — unlabeled
   events, driver and timer labels such as "rr:start" or "slo" — is
   "other". *)
let exec_class label =
  if has_suffix ":softirq" label || has_suffix ":soft" label then "softirq"
  else if has_prefix "vhost-" label then "vhost"
  else if has_suffix ":sys" label then "sys"
  else if has_suffix ":app" label then "app"
  else if
    label = "<unlabeled>" || label = "slo" || label = "timeline"
    || String.contains label ':'
  then "other"
  else "app"

(* Engine profiling reads its clock exactly twice per event, before
   and after the body, so the time between one event's second reading
   and the next event's first is the engine's own dispatch work. *)
type gap_clock = { mutable calls : int; mutable last : float; mutable gaps : float }

let gap_clock () =
  let g = { calls = 0; last = 0.0; gaps = 0.0 } in
  ( g,
    fun () ->
      let t = Unix.gettimeofday () in
      if g.calls > 0 && g.calls land 1 = 0 then g.gaps <- g.gaps +. (t -. g.last);
      g.calls <- g.calls + 1;
      g.last <- t;
      t )

let reconcile_tolerance = 0.03

(* A testbed workload: deploy (the public deploy_*_sync), a warm-up
   driver call that fills ARP, conntrack and the flow caches, then the
   measured driver call on the same testbed. *)
let testbed_rep ~deploy ~warm ~measure ~traced ~seed =
  let t0 = now () in
  let tb, ep = deploy seed in
  let t1 = now () in
  ignore (warm tb ep);
  let t2 = now () in
  let engine = tb.Testbed.engine in
  let gaps =
    if traced then begin
      let g, clock = gap_clock () in
      Engine.enable_profiling ~clock engine;
      Some g
    end
    else None
  in
  let before = if traced then counter_values engine else [] in
  let e0 = Engine.events_processed engine in
  let (completed, head, latency), ph = timed ~traced (fun () -> measure tb ep) in
  let events = Engine.events_processed engine - e0 in
  let layers =
    match gaps with
    | None -> []
    | Some g ->
      let deltas =
        List.map
          (fun (n, v) ->
            (n, v -. Option.value (List.assoc_opt n before) ~default:0.0))
          (counter_values engine)
      in
      let classes = Hashtbl.create 8 in
      let bodies = ref 0.0 in
      List.iter
        (fun (label, _, s) ->
          let c = exec_class label in
          bodies := !bodies +. s;
          Hashtbl.replace classes c
            (s +. Option.value (Hashtbl.find_opt classes c) ~default:0.0))
        (Engine.profile engine);
      let cls c = Some (Option.value (Hashtbl.find_opt classes c) ~default:0.0) in
      let per_op x = Option.map (fun v -> v /. float_of_int completed) x in
      (* "ns.<ns>.flow_cache_{hits,misses}", "fc.overlay.<dev>.{hits,misses}",
         "ns.<ns>.dropped_<why>" and "hop.<dev>". *)
      let cache kind n =
        (has_prefix "ns." n && has_suffix (".flow_cache_" ^ kind) n)
        || (has_prefix "fc.overlay." n && has_suffix ("." ^ kind) n)
      in
      let hits = sum_named (cache "hits") deltas
      and misses = sum_named (cache "misses") deltas in
      let fastpath =
        match (hits, misses) with
        | Some h, Some m when h +. m > 0.0 -> Some (h /. (h +. m))
        | _ -> None
      in
      [ ("engine.self_s", Some (ph.wall -. !bodies));
        ("exec.softirq_s", cls "softirq"); ("exec.vhost_s", cls "vhost");
        ("exec.sys_s", cls "sys"); ("exec.app_s", cls "app");
        ("exec.other_s", cls "other");
        ("exec.attributed_ratio", Some (!bodies /. ph.wall));
        ( "trace.unattributed_ratio",
          Some ((ph.wall -. !bodies -. g.gaps) /. ph.wall) );
        ("net.hops_per_op", per_op (sum_named (has_prefix "hop.") deltas));
        ( "net.drops_per_op",
          per_op
            (sum_named
               (fun n ->
                 has_prefix "ns." n
                 && has_prefix "dropped_"
                      (List.hd (List.rev (String.split_on_char '.' n))))
               deltas) );
        ("net.fastpath_hit_ratio", fastpath) ]
  in
  { attempted = completed; completed; sim_failed = 0;
    digest = samples_digest (string_of_int completed :: head) latency;
    events = Some events; ph; deploy_s = Some (t1 -. t0);
    warmup_s = Some (t2 -. t1); layers }

let rr_nat ~traced ~seed =
  testbed_rep ~traced ~seed
    ~deploy:(fun seed ->
      let tb, site = Exp_util.deploy_single_sync ~seed ~mode:`Nat ~port:12865 () in
      (tb, App.of_single tb site))
    ~warm:(fun tb ep ->
      Netperf.udp_rr tb ep ~msg_size:64 ~warmup:0 ~duration:(Time.ms 50) ())
    ~measure:(fun tb ep ->
      let r =
        Netperf.udp_rr tb ep ~msg_size:64 ~warmup:(Time.ms 1)
          ~duration:(Time.sec 1) ()
      in
      (r.Netperf.transactions, [], r.Netperf.latency))

let memcached_overlay ~traced ~seed =
  testbed_rep ~traced ~seed
    ~deploy:(fun seed ->
      let tb, site = Exp_util.deploy_pair_sync ~seed ~mode:`Overlay ~port:11211 () in
      (tb, App.of_pair site))
    ~warm:(fun tb ep ->
      Memcached.run tb ep ~warmup:0 ~duration:(Time.ms 50) ())
    ~measure:(fun tb ep ->
      let r = Memcached.run tb ep ~warmup:(Time.ms 5) ~duration:(Time.ms 200) () in
      ( Stats.count r.Memcached.latency,
        [ string_of_int r.Memcached.gets; string_of_int r.Memcached.sets ],
        r.Memcached.latency ))

(* ---- fleets --------------------------------------------------------- *)

type fleet = {
  params : Fig_fleet.params;
  shards : int;
  domains : int;
  quick : bool;
}

let fleet_256 =
  { params = { Fig_fleet.default_params with nodes = 256; pods = 6400; rate = 64000.0 };
    shards = 1; domains = 1; quick = true }

let fleet_16_2dom =
  { params = { Fig_fleet.default_params with nodes = 16; pods = 400; rate = 40000.0 };
    shards = 2; domains = 2; quick = false }

let with_seed f seed = { f.params with Fig_fleet.seed }

(* Everything before the first measured op: the same fleet with no
   trace pods and a token arrival rate, which still builds, deploys,
   wires and boots every node. *)
let fleet_setup f ~seed =
  let p = { (with_seed f seed) with Fig_fleet.pods = 0; rate = 1.0 } in
  snd
    (timed ~traced:false (fun () ->
         ignore
           (Fig_fleet.summarize ~params:p ~shards:f.shards ~domains:f.domains
              ~quick:f.quick ())))

(* Runs [f] with the process's stdout sent to a file in the working
   directory and returns what it printed. *)
let capture_stdout f =
  let path =
    Filename.temp_file ~temp_dir:Filename.current_dir_name ".perfbench-" ".out"
  in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let result = try Ok (f ()) with e -> Error e in
  restore ();
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match result with Ok r -> (r, text) | Error e -> raise e

let words_of line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))

(* The rows of the "per-shard progress:" table:
   shard events delivered blocked null-msgs pending clock-ms. *)
let parse_shard_table text =
  let lines = String.split_on_char '\n' text in
  let rec after = function
    | [] -> []
    | l :: rest when String.trim l = "per-shard progress:" -> rows (List.tl rest)
    | _ :: rest -> after rest
  and rows = function
    | l :: rest -> (
      match words_of l with
      | [ s; ev; dl; bl; nm; _pend; _clk ] -> (
        match List.map int_of_string_opt [ s; ev; dl; bl; nm ] with
        | [ Some _; Some ev; Some dl; Some bl; Some nm ] ->
          (ev, dl, bl, nm) :: rows rest
        | _ -> [])
      | _ -> [])
    | [] -> []
  in
  after lines

let find_line prefix text =
  List.find_opt
    (fun l -> has_prefix prefix (String.trim l))
    (String.split_on_char '\n' text)

let fleet_rep f ~traced ~seed =
  let params = with_seed f seed in
  if not traced then begin
    let s, ph =
      timed ~traced (fun () ->
          Fig_fleet.summarize ~params ~shards:f.shards ~domains:f.domains
            ~quick:f.quick ())
    in
    { attempted = s.Fig_fleet.s_offered; completed = s.Fig_fleet.s_completed;
      sim_failed = s.Fig_fleet.s_shed + s.Fig_fleet.s_lost;
      digest = s.Fig_fleet.s_digest; events = None; ph; deploy_s = None;
      warmup_s = None; layers = [] }
  end
  else begin
    let ((), text), ph =
      timed ~traced (fun () ->
          capture_stdout (fun () ->
              Fig_fleet.run ~params ~shards:f.shards ~domains:f.domains
                ~quick:f.quick ()))
    in
    let fail what = failwith ("perfbench: Fig_fleet.run printed no " ^ what) in
    let offered, shed, lost, completed =
      match find_line "fleet total:" text with
      | Some l -> (
        match words_of l with
        | [ _; _; "offered"; o; "shed"; s; "lost"; l; "done"; d ] ->
          (int_of_string o, int_of_string s, int_of_string l, int_of_string d)
        | _ -> fail "parsable fleet total")
      | None -> fail "fleet total"
    in
    let digest =
      match find_line "digest" text with
      | Some l -> (
        match words_of l with [ "digest"; d ] -> d | _ -> fail "parsable digest")
      | None -> fail "digest"
    in
    let shards = parse_shard_table text in
    if shards = [] then fail "shard table";
    let sum g = List.fold_left (fun a r -> a + g r) 0 shards in
    let events = sum (fun (e, _, _, _) -> e) in
    let delivered = sum (fun (_, d, _, _) -> d) in
    let blocked = sum (fun (_, _, b, _) -> b) in
    let nulls = sum (fun (_, _, _, n) -> n) in
    let max_ev = List.fold_left (fun a (e, _, _, _) -> max a e) 0 shards in
    let fi = float_of_int in
    let ratio a b = if b = 0 then 0.0 else fi a /. fi b in
    { attempted = offered; completed; sim_failed = shed + lost; digest;
      events = Some events; ph; deploy_s = None; warmup_s = None;
      layers =
        [ ("loadgen.offered", Some (fi offered));
          ("loadgen.shed_ratio", Some (ratio shed offered));
          ("loadgen.lost_ratio", Some (ratio lost offered));
          ("sharded.null_msgs_per_delivery", Some (ratio nulls delivered));
          ("sharded.blocked_per_event", Some (ratio blocked events));
          ( "sharded.imbalance",
            Some (fi max_ev /. (fi events /. fi (List.length shards))) ) ] }
  end

(* ---- workloads and metrics ------------------------------------------ *)

type workload = {
  name : string;
  rep : traced:bool -> seed:int64 -> rep;
  nominal_rep_s : float;  (* host seconds of one untraced repetition *)
  (* Fleets time their set-up as separate zero-traffic builds, that
     many of them; the testbeds time it inside every repetition. *)
  setup : ((seed:int64 -> phase) * int) option;
}

let workloads =
  [ { name = "rr_nat"; rep = rr_nat; nominal_rep_s = 0.45; setup = None };
    { name = "memcached_overlay"; rep = memcached_overlay; nominal_rep_s = 1.0;
      setup = None };
    { name = "fleet_256"; rep = fleet_rep fleet_256; nominal_rep_s = 1.8;
      setup = Some (fleet_setup fleet_256, 7) };
    { name = "fleet_16_2dom"; rep = fleet_rep fleet_16_2dom; nominal_rep_s = 1.0;
      setup = Some (fleet_setup fleet_16_2dom, 41) } ]

(* Metric names and units, as BENCHMARK.json lists them; README.md
   defines each one. *)
let end_to_end =
  [ ("wall_s", "s"); ("cpu_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB");
    ("alloc_words_per_op", "words/op"); ("ok_ratio", "ratio") ]

let per_layer =
  [ ("engine.events_per_op", "events/op"); ("engine.ns_per_event", "ns");
    ("engine.self_s", "s");
    ("exec.softirq_s", "s"); ("exec.vhost_s", "s"); ("exec.sys_s", "s");
    ("exec.app_s", "s"); ("exec.other_s", "s");
    ("exec.attributed_ratio", "ratio"); ("trace.unattributed_ratio", "ratio");
    ("net.hops_per_op", "hops/op"); ("net.drops_per_op", "drops/op");
    ("net.fastpath_hit_ratio", "ratio");
    ("loadgen.offered", "count"); ("loadgen.shed_ratio", "ratio");
    ("loadgen.lost_ratio", "ratio");
    ("sharded.null_msgs_per_delivery", "msgs/delivery");
    ("sharded.blocked_per_event", "blocks/event");
    ("sharded.imbalance", "ratio"); ("sharded.busy_cores", "cores");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.promoted_words_per_op", "words/op"); ("gc.pause_s", "s");
    ("setup.deploy_s", "s"); ("setup.warmup_s", "s");
    ("trace.overhead_ratio", "ratio"); ("host.speed_factor", "ratio") ]

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_opt l = match List.filter_map Fun.id l with [] -> None | l -> Some (median l)

(* ---- the run -------------------------------------------------------- *)

let run w ~seed ~seconds ~trace =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let expected = List.assoc w.name reference_digests in
  (* The reference repetition: the default seed, checked against the
     pinned digest whatever seed was asked for.  It also warms the
     process (heap growth, page faults) before anything is timed. *)
  let reference = w.rep ~traced:false ~seed:reference_seed in
  let ref_ok = reference.digest = expected in
  if not ref_ok then
    error "reference digest at seed %Ld is %s, expected %s" reference_seed
      reference.digest expected;
  let setups =
    match w.setup with
    | None -> []
    | Some (s, n) ->
      List.init n (fun _ ->
          let ph, speed = at_reference_speed (fun () -> s ~seed) in
          ph.wall *. speed)
  in
  (* Measured repetitions at the requested seed.  Their number follows
     from [seconds] and the workload's nominal repetition cost, not from
     the clock, so every run of a workload does the same work on any
     host and any commit.  A traced run alternates untraced and traced
     repetitions so both see the same host conditions. *)
  let reps = max 3 (Float.to_int (Float.round (seconds /. w.nominal_rep_s))) in
  let untraced = ref [] and traced = ref [] in
  for i = 0 to reps - 1 do
    let tr = trace && i land 1 = 1 in
    let r = at_reference_speed (fun () -> w.rep ~traced:tr ~seed) in
    if tr then traced := r :: !traced else untraced := r :: !untraced
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let all = untraced @ traced in
  let reps_of = List.map fst in
  (* Every repetition at one seed must give one digest: repetition to
     repetition, and traced against untraced. *)
  let first = (fst (List.hd untraced)).digest in
  let bad r =
    r.digest <> first || (seed = reference_seed && r.digest <> expected)
  in
  List.iter
    (fun r ->
      if bad r then
        error "repetition digest %s differs (first %s, reference %s)" r.digest
          first expected)
    (reps_of all);
  let attempted =
    List.fold_left (fun a r -> a + r.attempted) reference.attempted (reps_of all)
  in
  let failed =
    List.fold_left
      (fun a r -> a + if bad r then r.attempted else r.sim_failed)
      (if ref_ok then reference.sim_failed else reference.attempted)
      (reps_of all)
  in
  (* Medians over repetitions; the [_s] variants are for host times and
     scale each repetition's value by its speed factor. *)
  let med f l = median (List.map (fun (r, _) -> f r) l) in
  let med_s f l = median (List.map (fun (r, speed) -> f r *. speed) l) in
  let med_opt_s f l =
    median_opt (List.map (fun (r, speed) -> Option.map (( *. ) speed) (f r)) l)
  in
  let u_wall = med_s (fun r -> r.ph.wall) untraced in
  let u_cpu = med_s (fun r -> r.ph.cpu) untraced in
  let setup_s =
    match setups with
    | [] -> med_s (fun r -> Option.get r.deploy_s +. Option.get r.warmup_s) all
    | l -> median l
  in
  let ops r = float_of_int (max 1 r.completed) in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8) /. 1048576.0
  in
  let e2e =
    [ ("wall_s", Some u_wall); ("cpu_s", Some u_cpu); ("setup_s", Some setup_s);
      ("peak_heap_mb", Some heap_mb);
      ("alloc_words_per_op", Some (med (fun r -> r.ph.words /. ops r) untraced));
      ( "ok_ratio",
        Some (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted))) ) ]
  in
  let layers =
    if not trace then []
    else begin
      let layer name =
        let seconds = List.assoc name per_layer = "s" in
        median_opt
          (List.map
             (fun (r, speed) ->
               Option.map
                 (fun v -> if seconds then v *. speed else v)
                 (Option.join (List.assoc_opt name r.layers)))
             traced)
      in
      let t_wall = med_s (fun r -> r.ph.wall) traced in
      let events =
        median_opt (List.map (fun (r, _) -> Option.map float_of_int r.events) all)
      in
      (match layer "trace.unattributed_ratio" with
      | Some un when Float.abs un > reconcile_tolerance ->
        error
          "per-layer times do not reconcile: event bodies + dispatch leave \
           %.3f of the traced wall unattributed"
          un
      | _ -> ());
      let computed =
        [ ("engine.events_per_op",
           Option.map (fun e -> e /. med ops all) events);
          ("engine.ns_per_event", Option.map (fun e -> u_wall *. 1e9 /. e) events);
          ("sharded.busy_cores", Some (med (fun r -> r.ph.cpu /. r.ph.wall) untraced));
          ("gc.minor_collections", Some (med (fun r -> float_of_int r.ph.minors) traced));
          ("gc.major_collections", Some (med (fun r -> float_of_int r.ph.majors) traced));
          ("gc.promoted_words_per_op", Some (med (fun r -> r.ph.promoted /. ops r) traced));
          ("gc.pause_s", Some (med_s (fun r -> r.ph.pause) traced));
          ( "setup.deploy_s",
            match setups with
            | [] -> med_opt_s (fun r -> r.deploy_s) all
            | l -> Some (median l) );
          ("setup.warmup_s", med_opt_s (fun r -> r.warmup_s) all);
          ("trace.overhead_ratio", Some (t_wall /. u_wall));
          ("host.speed_factor", Some (median (List.map snd all))) ]
      in
      List.map
        (fun (name, _) ->
          match List.assoc_opt name computed with
          | Some v -> (name, v)
          | None -> (name, layer name))
        per_layer
    end
  in
  (* Human-readable report, then the one-line JSON result. *)
  Printf.printf "perfbench %s  seed %Ld  trace %d  (%d untraced + %d traced repetitions)\n"
    w.name seed (if trace then 1 else 0) (List.length untraced) (List.length traced);
  Printf.printf "  digest %s   reference %s at seed %Ld: %s\n" first reference.digest
    reference_seed (if ref_ok then "ok" else "MISMATCH");
  let unit_of name = List.assoc name (end_to_end @ per_layer) in
  let show (name, v) =
    match v with
    | Some v -> Printf.printf "  %-32s %16.6f %s\n" name v (unit_of name)
    | None -> Printf.printf "  %-32s %16s %s\n" name "absent" (unit_of name)
  in
  let walls rs =
    String.concat " "
      (List.map (fun (r, sp) -> Printf.sprintf "%.3f@%.2f" r.ph.wall sp) rs)
  in
  Printf.printf "  raw repetition walls (s) @ speed factor: untraced %s%s\n"
    (walls untraced)
    (if trace then "; traced " ^ walls traced else "");
  List.iter show e2e;
  List.iter show layers;
  if Gc_pause.(!lost) > 0 then
    Printf.printf "  note: %d runtime events were lost; gc.pause_s is a lower bound\n"
      !Gc_pause.lost;
  List.iter (fun e -> Printf.printf "  ERROR: %s\n" e) (List.rev !errors);
  (* An absent layer metric is printed as -1 in the JSON line, which
     must carry a number for every metric. *)
  let json_metric (name, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (Option.value v ~default:(-1.0)) (unit_of name)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!errors = []) attempted failed
    (String.concat ", " (List.map json_metric (if trace then layers else e2e)))

let () =
  let workload = ref "" and seed = ref reference_seed and seconds = ref 10.0 in
  let trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map (fun w -> w.name) workloads));
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), " input seed");
      ("--seconds", Arg.Set_float seconds, " host seconds of measured repetitions");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
  in
  let usage = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
