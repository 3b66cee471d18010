(* Observability data structures: bounded-error mergeable histograms
   (Hdr) and the live SLO monitor's windowed burn-rate accounting.  The
   merge tests double as the --jobs determinism guard at the
   data-structure level: the same samples must yield bit-identical
   digests however they were sharded or which domain produced them. *)

module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Trace = Nest_sim.Trace
module Metrics = Nest_sim.Metrics
module Hdr = Nest_sim.Hdr
module Slo = Nest_sim.Slo
module Domain_pool = Nest_sim.Domain_pool

(* Deterministic sample stream (no Random state shared with other
   tests): a tiny LCG over positive floats spanning ~5 decades. *)
let samples seed n =
  let x = ref (Int64.of_int (seed + 1)) in
  List.init n (fun _ ->
      x := Int64.add (Int64.mul !x 6364136223846793005L) 1442695040888963407L;
      let u = Int64.to_float (Int64.shift_right_logical !x 11) /. 9.0e18 in
      0.5 +. (100_000.0 *. u *. u))

(* --- Hdr: accuracy against exact percentiles ---------------------- *)

let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let test_hdr_accuracy () =
  let xs = samples 7 5000 in
  let h = Hdr.create ~error:0.01 () in
  List.iter (Hdr.add h) xs;
  let sorted = Array.of_list xs in
  Array.sort compare sorted;
  Alcotest.(check int) "count exact" 5000 (Hdr.count h);
  Alcotest.(check (float 1e-6)) "total exact"
    (List.fold_left ( +. ) 0.0 xs)
    (Hdr.total h);
  Alcotest.(check (float 0.0)) "min exact" sorted.(0) (Hdr.min h);
  Alcotest.(check (float 0.0)) "max exact" sorted.(4999) (Hdr.max h);
  List.iter
    (fun p ->
      let ex = exact_percentile sorted p in
      let got = Hdr.percentile h p in
      let rel = abs_float (got -. ex) /. ex in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 1%% (exact %.3f got %.3f rel %.4f)" p ex
           got rel)
        true (rel <= 0.0101))
    [ 50.0; 90.0; 99.0; 99.9 ]

let test_hdr_zero_and_empty () =
  let h = Hdr.create () in
  Alcotest.(check (float 0.0)) "empty percentile is 0" 0.0
    (Hdr.percentile h 99.0);
  Alcotest.(check (float 0.0)) "empty min" infinity (Hdr.min h);
  Hdr.add h 0.0;
  Hdr.add h (-3.0);
  Hdr.add h Float.nan;
  Hdr.add h 10.0;
  Alcotest.(check int) "non-positive and NaN still counted" 4 (Hdr.count h);
  (* Ranks falling in the zero bucket report the exact minimum (here the
     negative sample), never a fabricated bucket midpoint. *)
  Alcotest.(check (float 0.0)) "zero bucket reports exact min" (-3.0)
    (Hdr.percentile h 25.0)

(* --- Hdr: merging is exact sharding ------------------------------- *)

let test_hdr_merge_identity () =
  let xs = samples 11 4000 in
  let whole = Hdr.create () in
  List.iter (Hdr.add whole) xs;
  (* Shard the same stream 4 ways round-robin, then merge in two
     different orders: both must equal the unsharded sketch bit for
     bit — bucket-wise addition is exact and order-free. *)
  let shards = Array.init 4 (fun _ -> Hdr.create ()) in
  List.iteri (fun i x -> Hdr.add shards.(i mod 4) x) xs;
  let merge order =
    let m = Hdr.create () in
    List.iter (fun i -> Hdr.merge_into ~into:m shards.(i)) order;
    m
  in
  let a = merge [ 0; 1; 2; 3 ] and b = merge [ 3; 1; 0; 2 ] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g merge = whole" p)
        (Hdr.percentile whole p) (Hdr.percentile a p);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g merge order-free" p)
        (Hdr.percentile a p) (Hdr.percentile b p))
    [ 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ];
  Alcotest.(check int) "count merges" (Hdr.count whole) (Hdr.count a);
  Alcotest.(check (float 0.0)) "max merges" (Hdr.max whole) (Hdr.max a)

let test_hdr_merge_error_mismatch () =
  let a = Hdr.create ~error:0.01 () and b = Hdr.create ~error:0.02 () in
  Alcotest.(check bool) "different error bounds rejected" true
    (try
       Hdr.merge_into ~into:a b;
       false
     with Invalid_argument _ -> true)

(* --- Slo: windowed burn rates ------------------------------------- *)

let test_slo_availability_windows () =
  let e = Engine.create () in
  let slo =
    Slo.create
      ~specs:[ Slo.availability ~window:(Time.ms 100) ~target:0.9 () ]
      ~stop:(Time.ms 450) e
  in
  let feed ~at ~sent ~ok =
    Engine.schedule_at e ~at (fun () ->
        for _ = 1 to sent do
          Slo.observe_sent slo
        done;
        for _ = 1 to ok do
          Slo.observe_ok slo
        done)
  in
  feed ~at:(Time.ms 50) ~sent:10 ~ok:10;   (* window 1: burn 0 *)
  feed ~at:(Time.ms 150) ~sent:10 ~ok:5;   (* window 2: err .5/.1 = 5 *)
  feed ~at:(Time.ms 250) ~sent:10 ~ok:9;   (* window 3: burn exactly 1 *)
  Engine.run e;
  match Slo.report slo with
  | [ c ] ->
    Alcotest.(check int) "four full windows before stop" 4 c.Slo.c_windows;
    Alcotest.(check int) "only the 50%% window violates" 1 c.Slo.c_violations;
    Alcotest.(check (float 1e-9)) "worst burn" 5.0 c.Slo.c_worst_burn;
    Alcotest.(check bool) "not compliant" false (Slo.compliant c)
  | r -> Alcotest.failf "one spec, %d compliance rows" (List.length r)

let test_slo_goodput_start_offset () =
  let e = Engine.create () in
  (* Armed at t=0 for a workload that only begins at 200 ms: the idle
     lead-in must not be counted as silent (burn = inf) windows. *)
  let slo =
    Slo.create ~start:(Time.ms 200)
      ~specs:[ Slo.goodput ~window:(Time.ms 100) ~floor_per_s:100.0 () ]
      ~stop:(Time.ms 500) e
  in
  Engine.schedule_at e ~at:(Time.ms 250) (fun () ->
      for _ = 1 to 20 do
        Slo.observe_ok slo
      done);
  Engine.run e;
  match Slo.report slo with
  | [ c ] ->
    (* Ticks at 300/400/500 only. 20 ok in 100 ms = 200/s >= floor; the
       two silent windows after the burst burn infinitely. *)
    Alcotest.(check int) "lead-in not windowed" 3 c.Slo.c_windows;
    Alcotest.(check int) "silent windows violate" 2 c.Slo.c_violations;
    Alcotest.(check bool) "silent burn is inf" true
      (c.Slo.c_worst_burn = infinity)
  | r -> Alcotest.failf "one spec, %d compliance rows" (List.length r)

let test_slo_latency_percentile () =
  let e = Engine.create () in
  let slo =
    Slo.create
      ~specs:[ Slo.latency_p ~window:(Time.ms 100) ~p:90.0 ~limit_us:100.0 () ]
      ~stop:(Time.ms 100) e
  in
  Engine.schedule_at e ~at:(Time.ms 50) (fun () ->
      for i = 1 to 10 do
        Slo.observe_latency slo (if i <= 8 then 50.0 else 500.0)
      done);
  Engine.run e;
  (match Slo.report slo with
  | [ c ] ->
    Alcotest.(check int) "one window" 1 c.Slo.c_windows;
    (* 2/10 over the limit against a 10 % budget: burn 2. *)
    Alcotest.(check (float 1e-9)) "burn = over/budget" 2.0 c.Slo.c_worst_burn;
    Alcotest.(check int) "violated" 1 c.Slo.c_violations
  | r -> Alcotest.failf "one spec, %d compliance rows" (List.length r));
  let lat = Slo.latency slo in
  Alcotest.(check int) "run-wide sketch holds every sample" 10 (Hdr.count lat);
  Alcotest.(check (float 0.0)) "sketch max exact" 500.0 (Hdr.max lat)

let test_slo_violation_side_effects () =
  let e = Engine.create () in
  let tr = Trace.create ~capacity:256 () in
  Engine.set_tracer e (Some tr);
  let slo =
    Slo.create
      ~specs:[ Slo.availability ~window:(Time.ms 100) ~target:0.9 () ]
      ~stop:(Time.ms 200) e
  in
  Engine.schedule_at e ~at:(Time.ms 50) (fun () ->
      Slo.observe_sent slo;
      Slo.observe_sent slo;
      Slo.observe_ok slo)
  (* window 1: 50 % errors -> violation; window 2: quiet, compliant *);
  Engine.run e;
  let slo_instants =
    List.filter
      (fun ev -> ev.Trace.kind = Trace.Instant && ev.Trace.cat = "slo")
      (Trace.events tr)
  in
  (match slo_instants with
  | [ ev ] ->
    Alcotest.(check string) "instant names the spec" "availability"
      ev.Trace.name;
    Alcotest.(check string) "instant carries the burn" "burn=5.00"
      ev.Trace.arg
  | l -> Alcotest.failf "expected 1 slo instant, got %d" (List.length l));
  match Metrics.find (Engine.metrics e) "slo.availability.violations" with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "counter bumped" 1 n
  | _ -> Alcotest.fail "violation counter missing"

let test_slo_no_counter_when_compliant () =
  let e = Engine.create () in
  let slo =
    Slo.create
      ~specs:[ Slo.availability ~window:(Time.ms 100) ~target:0.9 () ]
      ~stop:(Time.ms 200) e
  in
  Engine.schedule_at e ~at:(Time.ms 50) (fun () ->
      Slo.observe_sent slo;
      Slo.observe_ok slo);
  Engine.run e;
  Alcotest.(check bool) "no zero row in metric dumps" true
    (Metrics.find (Engine.metrics e) "slo.availability.violations" = None);
  Alcotest.(check int) "engine drained despite ticks" 2
    (match Slo.report slo with [ c ] -> c.Slo.c_windows | _ -> -1)

(* --- --jobs determinism of the merged views ----------------------- *)

(* One "cell": a private sketch built deterministically from the cell
   index.  Fanning cells across domains and merging must be
   bit-identical to the sequential run — this is the data-structure half
   of the chaos --check guarantee. *)
let cell i =
  let h = Hdr.create () in
  List.iter (Hdr.add h) (samples i 2000);
  h

let merged_digest cells =
  let m = Hdr.create () in
  List.iter (fun h -> Hdr.merge_into ~into:m h) cells;
  (Hdr.percentile m 50.0, Hdr.percentile m 99.0, Hdr.count m)

(* --- observability is pure observation ---------------------------- *)

(* The headline always-on claim: attaching tracing + metrics +
   provenance to an experiment must not perturb its results by a single
   bit; and switching everything back off must leave no residue. *)
let test_obs_neutrality () =
  let module Obs = Nest_experiments.Exp_util.Obs in
  let sweep = Helpers.nat_netperf_sweep in
  let bare = sweep () in
  Obs.configure ~trace:true ~metrics:true ~provenance:true ~prov_sample:4 ();
  let observed = sweep () in
  Obs.discard ();
  Obs.configure ~trace:false ~metrics:false ~provenance:false ();
  let after = sweep () in
  List.iter2
    (fun (a : Helpers.netperf_point) (b : Helpers.netperf_point) ->
      Alcotest.(check int) "size" a.size b.size;
      Alcotest.(check (float 0.0)) "mbps unperturbed" a.mbps b.mbps;
      Alcotest.(check (float 0.0)) "latency unperturbed" a.lat_mean_us
        b.lat_mean_us)
    bare observed;
  List.iter2
    (fun (a : Helpers.netperf_point) (b : Helpers.netperf_point) ->
      Alcotest.(check (float 0.0)) "no residue after disable" a.mbps b.mbps)
    bare after

let test_jobs_merge_determinism () =
  let idx = [ 0; 1; 2; 3 ] in
  let seq = merged_digest (Domain_pool.map ~jobs:1 cell idx) in
  let par = merged_digest (Domain_pool.map ~jobs:4 cell idx) in
  let p50a, p99a, na = seq and p50b, p99b, nb = par in
  Alcotest.(check (float 0.0)) "merged p50 bit-identical" p50a p50b;
  Alcotest.(check (float 0.0)) "merged p99 bit-identical" p99a p99b;
  Alcotest.(check int) "merged count" na nb

let () =
  Alcotest.run "slo"
    [ ( "hdr",
        [ Alcotest.test_case "accuracy vs exact" `Quick test_hdr_accuracy;
          Alcotest.test_case "zero/NaN/empty" `Quick test_hdr_zero_and_empty;
          Alcotest.test_case "merge = sharding" `Quick test_hdr_merge_identity;
          Alcotest.test_case "merge error mismatch" `Quick
            test_hdr_merge_error_mismatch ] );
      ( "slo",
        [ Alcotest.test_case "availability windows" `Quick
            test_slo_availability_windows;
          Alcotest.test_case "goodput start offset" `Quick
            test_slo_goodput_start_offset;
          Alcotest.test_case "latency percentile" `Quick
            test_slo_latency_percentile;
          Alcotest.test_case "violation side effects" `Quick
            test_slo_violation_side_effects;
          Alcotest.test_case "compliant leaves no counter" `Quick
            test_slo_no_counter_when_compliant ] );
      ( "jobs",
        [ Alcotest.test_case "merged views deterministic" `Quick
            test_jobs_merge_determinism ] );
      ( "neutrality",
        [ Alcotest.test_case "obs does not perturb results" `Quick
            test_obs_neutrality ] ) ]
