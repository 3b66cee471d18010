(* PR-9 load-generation subsystem: arrival processes, heavy-tailed
   sizes, open-loop admission/accounting, and the fleet scenario's
   shard/domain determinism.  The open-vs-closed test is the point of
   the subsystem: the same stalled server must inflate the open-loop
   percentiles while the closed loop's completed-RTT histogram sleeps
   through the outage. *)

module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Prng = Nest_sim.Prng
module Hdr = Nest_sim.Hdr
module Arrival = Nest_loadgen.Arrival
module Size_dist = Nest_loadgen.Size_dist
module Loadgen = Nest_loadgen.Loadgen

let take_offsets a n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Arrival.next a with
      | None -> List.rev acc
      | Some t -> go (t :: acc) (k - 1)
  in
  go [] n

(* --- arrival processes -------------------------------------------- *)

let test_constant () =
  let a = Arrival.constant ~rate_per_s:1000.0 in
  Alcotest.(check (list int))
    "1 kHz arrivals sit on exact-ms marks"
    [ Time.ms 1; Time.ms 2; Time.ms 3; Time.ms 4 ]
    (take_offsets a 4);
  Alcotest.(check (option int)) "rate process is infinite" None (Arrival.total a);
  Alcotest.check_raises "non-positive rate rejected"
    (Invalid_argument "Arrival.constant: rate must be > 0") (fun () ->
      ignore (Arrival.constant ~rate_per_s:0.0))

let test_poisson_deterministic () =
  let offsets seed =
    take_offsets (Arrival.poisson ~rng:(Prng.create seed) ~rate_per_s:5000.0) 500
  in
  Alcotest.(check (list int))
    "same seed, same schedule" (offsets 42L) (offsets 42L);
  Alcotest.(check bool)
    "different seed, different schedule" false
    (offsets 42L = offsets 43L);
  let xs = offsets 42L in
  Alcotest.(check bool) "monotone non-decreasing" true
    (List.for_all2 ( <= ) (0 :: xs) (xs @ [ max_int ]));
  (* Mean inter-arrival of a 5 kHz Poisson process is 200 µs; 500 draws
     put the sample mean within a few percent. *)
  let mean =
    float_of_int (List.nth xs 499) /. 500.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean inter-arrival ~200us (got %.1fus)" (mean /. 1e3))
    true
    (mean > 150e3 && mean < 250e3)

let test_of_trace_totals () =
  let users = Nest_traces.Trace_gen.generate ~seed:7L ~users:5 in
  let pods =
    List.fold_left (fun n u -> n + Nest_traces.Trace.user_pods u) 0 users
  in
  let a = Arrival.of_trace ~users ~over:(Time.sec 1) in
  Alcotest.(check (option int))
    "finite process knows its total" (Some pods) (Arrival.total a);
  let xs = take_offsets a (pods + 10) in
  Alcotest.(check int)
    "replay yields exactly one arrival per trace pod" pods (List.length xs);
  Alcotest.(check bool) "all offsets within the window" true
    (List.for_all (fun t -> t > 0 && t <= Time.sec 1) xs)

(* --- size distributions ------------------------------------------- *)

let test_sizes () =
  let rng = Prng.create 11L in
  let pareto = Size_dist.Pareto { shape = 1.2; lo = 64; hi = 1400 } in
  let draws = List.init 2000 (fun _ -> Size_dist.draw pareto rng) in
  Alcotest.(check bool) "bounded pareto stays in [lo, hi]" true
    (List.for_all (fun s -> s >= 64 && s <= 1400) draws);
  Alcotest.(check bool) "heavy tail reaches past 4x the floor" true
    (List.exists (fun s -> s > 256) draws);
  Alcotest.(check int) "fixed is fixed" 512
    (Size_dist.draw (Size_dist.Fixed 512) rng);
  Alcotest.check_raises "inverted uniform bounds rejected"
    (Invalid_argument "Size_dist.draw: Uniform needs 1 <= lo <= hi") (fun () ->
      ignore (Size_dist.draw (Size_dist.Uniform { lo = 9; hi = 3 }) rng))

(* --- open-loop accounting ----------------------------------------- *)

(* Arrivals at 1 ms spacing into a 4-slot admission bound, against a
   server that never answers: slots are only reclaimed by the 20 ms
   timeout, so the generator must shed most arrivals, lose every
   admitted one, and the books must balance exactly.  (99, not 100: an
   arrival landing exactly on [stop] is never scheduled.) *)
let test_shed_and_lost () =
  let engine = Engine.create () in
  let start = Time.ms 10 and stop = Time.ms 110 in
  let g =
    Loadgen.create ~engine ~label:"blackhole"
      ~arrival:(Arrival.constant ~rate_per_s:1000.0)
      ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 1L) ~max_outstanding:4
      ~timeout:(Time.ms 20)
      ~dispatch:(fun ~seq:_ ~size:_ -> ())
      ~start ~stop ()
  in
  Engine.run engine;
  let c = Loadgen.counts g in
  Alcotest.(check int) "every scheduled arrival fired" 99 c.Loadgen.offered;
  Alcotest.(check int) "offered = admitted + shed" c.Loadgen.offered
    (c.Loadgen.admitted + c.Loadgen.shed);
  Alcotest.(check int) "admitted = lost + completed (drained)"
    c.Loadgen.admitted
    (c.Loadgen.lost + c.Loadgen.completed);
  Alcotest.(check int) "nothing completed" 0 c.Loadgen.completed;
  Alcotest.(check bool) "bound actually shed" true (c.Loadgen.shed > 0);
  Alcotest.(check bool) "timeouts actually reclaimed slots" true
    (c.Loadgen.lost >= 4)

let test_all_completed () =
  let engine = Engine.create () in
  let g = ref None in
  let gen =
    Loadgen.create ~engine
      ~arrival:(Arrival.constant ~rate_per_s:2000.0)
      ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 2L)
      ~dispatch:(fun ~seq ~size:_ ->
        Engine.schedule engine ~delay:(Time.us 100) (fun () ->
            Loadgen.complete (Option.get !g) ~seq))
      ~start:(Time.ms 1) ~stop:(Time.ms 51) ()
  in
  g := Some gen;
  Engine.run engine;
  let c = Loadgen.counts gen in
  Alcotest.(check int) "all offered" 99 c.Loadgen.offered;
  Alcotest.(check int) "all completed" 99 c.Loadgen.completed;
  Alcotest.(check int) "nothing shed" 0 c.Loadgen.shed;
  Alcotest.(check int) "nothing lost" 0 c.Loadgen.lost;
  Alcotest.(check int) "one completion record per request" 99
    (List.length (Loadgen.completions gen));
  (* Duplicate and never-issued completions must be ignored. *)
  Loadgen.complete gen ~seq:1;
  Loadgen.complete gen ~seq:100000;
  Alcotest.(check int) "stale completions ignored" 99
    (Loadgen.counts gen).Loadgen.completed

(* --- open vs closed loop under a stalled server -------------------- *)

(* One server model, two measurement disciplines.  The server answers in
   1 ms, except requests landing in [150 ms, 350 ms) which are parked
   until the stall lifts.  The closed loop (one outstanding op, next
   send gated on the previous completion, latency from actual send)
   records the stall in exactly ONE sample, so its p50 — and with few
   enough samples even its p99 — stays at 1 ms: coordinated omission.
   The open loop keeps its schedule and measures from intended start, so
   every arrival during the stall carries its true wait. *)
let test_open_vs_closed_divergence () =
  let stall_lo = Time.ms 150 and stall_hi = Time.ms 350 in
  let reply_at engine =
    let now = Engine.now engine in
    if now >= stall_lo && now < stall_hi then stall_hi + Time.ms 1
    else now + Time.ms 1
  in
  (* Open loop. *)
  let open_p99, open_counts =
    let engine = Engine.create () in
    let g = ref None in
    let gen =
      Loadgen.create ~engine
        ~arrival:(Arrival.constant ~rate_per_s:500.0)
        ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 3L)
        ~max_outstanding:1024 ~timeout:(Time.sec 1)
        ~dispatch:(fun ~seq ~size:_ ->
          Engine.schedule_at engine ~at:(reply_at engine) (fun () ->
              Loadgen.complete (Option.get !g) ~seq))
        ~start:0 ~stop:(Time.ms 500) ()
    in
    g := Some gen;
    Engine.run engine;
    (Hdr.percentile (Loadgen.latency gen) 99.0, Loadgen.counts gen)
  in
  (* Closed loop over the same server model. *)
  let closed_p99, closed_n =
    let engine = Engine.create () in
    let lat = Hdr.create () in
    let n = ref 0 in
    let rec send () =
      if Engine.now engine < Time.ms 500 then begin
        let sent_at = Engine.now engine in
        Engine.schedule_at engine ~at:(reply_at engine) (fun () ->
            Hdr.add lat (Time.to_us_f (Engine.now engine - sent_at));
            incr n;
            send ())
      end
    in
    Engine.schedule_at engine ~at:0 send;
    Engine.run engine;
    (Hdr.percentile lat 99.0, !n)
  in
  Alcotest.(check int) "open loop completed everything it admitted"
    open_counts.Loadgen.admitted open_counts.Loadgen.completed;
  Alcotest.(check bool)
    (Printf.sprintf "closed loop slept through the stall (p99 %.0fus)"
       closed_p99)
    true (closed_p99 < 2_000.0);
  Alcotest.(check bool)
    (Printf.sprintf "closed loop paused its own sampling (%d samples)"
       closed_n)
    true (closed_n < 350);
  Alcotest.(check bool)
    (Printf.sprintf "open loop carries the stall (p99 %.0fus)" open_p99)
    true (open_p99 > 100_000.0);
  Alcotest.(check bool) "divergence is two orders of magnitude" true
    (open_p99 > 50.0 *. closed_p99)

(* --- fleet scenario determinism ----------------------------------- *)

module Fig_fleet = Nest_experiments.Fig_fleet
module Exp_util = Nest_experiments.Exp_util

(* End-to-end guard at unit-test scale: a 3-node fleet (one node per
   deployment mode) must produce a byte-identical digest at every split
   of the shared list, as it runs on three nodes. *)
let test_fleet_digest_determinism () =
  let params =
    { Fig_fleet.default_params with Fig_fleet.nodes = 3; pods = 30;
      rate = 600.0 }
  in
  Alcotest.(check bool) "fleet check" true
    (Fig_fleet.check ~params ~quick:true ())

(* Splits that collapse onto an earlier one once shards are capped at
   the fleet size (and domains at the shard count) run once, labelled
   as they ran: a one-node check is a single (1,1) run. *)
let test_fleet_check_splits () =
  let splits = Alcotest.(list (pair int int)) in
  Alcotest.check splits "one node" [ (1, 1) ] (Exp_util.splits_for ~nodes:1);
  Alcotest.check splits "three nodes"
    [ (1, 1); (2, 1); (2, 2); (3, 2); (3, 3) ]
    (Exp_util.splits_for ~nodes:3);
  Alcotest.check splits "four nodes run the whole list" Exp_util.splits
    (Exp_util.splits_for ~nodes:4);
  Alcotest.(check bool) "one-node check passes" true
    (Fig_fleet.check
       ~params:{ Fig_fleet.default_params with Fig_fleet.nodes = 1; pods = 10;
                 rate = 300.0 }
       ~quick:true ())

(* The shared compare fails on any run that differs from its cell's
   first run, wherever it sits. *)
let test_digests_agree () =
  let cells last =
    [ ("a", [ ("r1", "x"); ("r2", "x") ]); ("b", [ ("r1", "y"); ("r2", last) ]) ]
  in
  Alcotest.(check bool) "all equal" true
    (Exp_util.digests_agree ~title:"t" (cells "y"));
  Alcotest.(check bool) "last run of the last cell differs" false
    (Exp_util.digests_agree ~title:"t" (cells "z"))

let () =
  Alcotest.run "loadgen"
    [ ( "arrival",
        [ Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "poisson deterministic" `Quick
            test_poisson_deterministic;
          Alcotest.test_case "trace replay totals" `Quick test_of_trace_totals
        ] );
      ( "sizes",
        [ Alcotest.test_case "distributions" `Quick test_sizes ] );
      ( "accounting",
        [ Alcotest.test_case "shed and lost" `Quick test_shed_and_lost;
          Alcotest.test_case "all completed" `Quick test_all_completed ] );
      ( "coordinated omission",
        [ Alcotest.test_case "open vs closed divergence" `Quick
            test_open_vs_closed_divergence ] );
      ( "fleet",
        [ Alcotest.test_case "digest across shards/domains" `Slow
            test_fleet_digest_determinism;
          Alcotest.test_case "clamped splits run once" `Quick
            test_fleet_check_splits;
          Alcotest.test_case "digest mismatch flagged" `Quick
            test_digests_agree ] ) ]
