(* PR-10 closed control loop: admission policies (burn AIMD, CoDel),
   the per-node pod autoscaler, and the fleet's graceful-degradation
   dynamics.  The acceptance test is the point: at 2x saturating load,
   burn admission + autoscaling must keep the availability budget
   intact and the completed-RTT tail within 2x of the unloaded
   baseline, while the fixed bound violates both. *)

open Nestfusion
module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Prng = Nest_sim.Prng
module Stack = Nest_net.Stack
module Arrival = Nest_loadgen.Arrival
module Size_dist = Nest_loadgen.Size_dist
module Loadgen = Nest_loadgen.Loadgen
module Admission = Nest_loadgen.Admission
module Autoscaler = Nest_orch.Autoscaler
module Netperf = Nest_workloads.Netperf
module Fig_fleet = Nest_experiments.Fig_fleet

(* --- admission policies ------------------------------------------- *)

(* Blackhole server under a Burn policy whose source reports a constant
   overload: the limit must collapse to the floor, the generator must
   shed, and the offered/admitted/shed/lost/completed books must still
   balance exactly once the engine drains. *)
let test_burn_books () =
  let engine = Engine.create () in
  let start = Time.ms 10 and stop = Time.ms 510 in
  let g =
    Loadgen.create ~engine
      ~arrival:(Arrival.constant ~rate_per_s:1000.0)
      ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 1L)
      ~admission:
        (Admission.burn ~floor:1 ~init:8 ~ceiling:16 ~window:(Time.ms 50) ())
      ~burn_source:(fun () -> 5.0)
      ~timeout:(Time.ms 20)
      ~dispatch:(fun ~seq:_ ~size:_ -> ())
      ~start ~stop ()
  in
  Engine.run engine;
  let c = Loadgen.counts g in
  Alcotest.(check int) "every scheduled arrival fired" 499 c.Loadgen.offered;
  Alcotest.(check int) "offered = admitted + shed" c.Loadgen.offered
    (c.Loadgen.admitted + c.Loadgen.shed);
  Alcotest.(check int) "admitted = lost + completed (drained)"
    c.Loadgen.admitted
    (c.Loadgen.lost + c.Loadgen.completed);
  Alcotest.(check bool) "burn shedding happened" true (c.Loadgen.shed > 0);
  Alcotest.(check int) "limit collapsed to the floor" 1
    (Loadgen.admission_limit g)

(* A square wave oscillating strictly inside the hysteresis band
   (low 0.25 < 0.4, 0.9 < high 1.0) must never move the limit; the same
   wave crossing both thresholds must. *)
let test_burn_hysteresis_no_flap () =
  let flaps wave =
    let engine = Engine.create () in
    let a =
      Admission.create ~engine
        ~burn_source:(fun () ->
          let w = Engine.now engine / Time.ms 100 in
          if w mod 2 = 0 then fst wave else snd wave)
        ~stop:(Time.sec 2)
        (Admission.burn ~floor:1 ~init:8 ~ceiling:16 ~window:(Time.ms 50) ())
    in
    Engine.run engine;
    (Admission.transitions a, Admission.limit a)
  in
  let t_band, l_band = flaps (0.4, 0.9) in
  Alcotest.(check int) "in-band square wave: zero transitions" 0 t_band;
  Alcotest.(check int) "in-band square wave: limit held" 8 l_band;
  let t_cross, _ = flaps (2.0, 0.0) in
  Alcotest.(check bool) "threshold-crossing wave does move the limit" true
    (t_cross > 0)

(* CoDel: persistent over-target completions tip the controller into a
   dropping episode; one good completion ends it. *)
let test_codel_episode () =
  let engine = Engine.create () in
  let a =
    Admission.create ~engine
      (Admission.codel ~target_us:100.0 ~interval:(Time.ms 10) ~ceiling:64 ())
  in
  let dropped = ref 0 and admitted = ref 0 in
  for i = 0 to 99 do
    Engine.schedule_at engine ~at:(Time.ms (i + 1)) (fun () ->
        if Admission.decide a ~outstanding:1 then incr admitted
        else incr dropped;
        Admission.on_complete a ~latency_us:5000.0)
  done;
  Engine.run engine;
  Alcotest.(check bool) "dropping episode engaged" true (!dropped > 0);
  Alcotest.(check bool) "codel never sheds everything" true (!admitted > 0);
  (* A single under-target completion resets the episode. *)
  Admission.on_complete a ~latency_us:10.0;
  let reopened = ref false in
  Engine.schedule_at engine ~at:(Time.ms 200) (fun () ->
      reopened := Admission.decide a ~outstanding:1);
  Engine.run engine;
  Alcotest.(check bool) "good completion reopens admission" true !reopened

(* Exact cost of the admission decision.  The same open-loop generator
   (200 k/s constant arrivals over 1-21 ms, a 10 us dispatcher, burn
   source 0.5) runs under each policy; engine events and minor words per
   offered arrival are deterministic work counters, so the bounds hold
   on any host.  They are pinned to OCaml 5.1.1, whose compiler and
   runtime decide the block sizes.  A decision must be O(1) and
   allocation-free: burn adds only its window ticks, codel only a clock
   read, so neither may cost more than the fixed bound on either
   counter. *)
let admission_kernel admission =
  let engine = Engine.create () in
  let g = ref None in
  let w0 = Gc.minor_words () in
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
  Engine.run engine;
  let words = Gc.minor_words () -. w0 in
  (Loadgen.counts gen, Engine.events_processed engine, words)

(* (policy, engine events, minor-word bound per offered arrival).  The
   events are one per arrival, one per reply and the one deadline timer,
   which here fires once at the end (every reply beats it).  The words
   were 9.4 (fixed, codel) and 5.2 (burn, which sheds half the
   arrivals) when the bounds were set, about 1 % below them (13.4 and
   9.3 while [Arrival.next] returned an option); raise a bound only
   together with the change that needs the words. *)
let decision_costs =
  [ ("fixed", None, 7_999, 9.5);
    ("burn", Some (Admission.burn ~window:(Time.ms 1) ()), 6_121, 5.3);
    ("codel",
      Some (Admission.codel ~target_us:5000.0 ~interval:(Time.ms 1) ()),
      7_999, 9.5) ]

let test_decision_cost () =
  let per_arrival =
    List.map
      (fun (name, admission, events, words_bound) ->
        let c, ev, words = admission_kernel admission in
        Alcotest.(check int) (name ^ ": every arrival fired") 3999
          c.Loadgen.offered;
        Alcotest.(check int) (name ^ ": engine events") events ev;
        let offered = float_of_int c.Loadgen.offered in
        let w = words /. offered in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.1f minor words per arrival <= %.1f" name w
             words_bound)
          true (w <= words_bound);
        (name, (float_of_int ev /. offered, w)))
      decision_costs
  in
  let fixed_ev, fixed_w = List.assoc "fixed" per_arrival in
  List.iter
    (fun (name, (ev, w)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s costs no more than fixed" name)
        true
        (ev <= fixed_ev && w <= fixed_w))
    (List.remove_assoc "fixed" per_arrival)

(* --- autoscaler --------------------------------------------------- *)

(* Scripted burn trajectory: one window of burn 3.0 must produce one
   proportional jump (1 -> 3, not a single step), then sustained quiet
   must walk the count back down one step per four-window cooldown,
   never below min. *)
let test_autoscaler_trajectory () =
  let engine = Engine.create () in
  let applied = ref [] in
  let a =
    Autoscaler.create ~engine ~min:1 ~max:4 ~window:(Time.ms 100)
      ~burn_source:(fun () ->
        if Engine.now engine <= Time.ms 150 then 3.0 else 0.0)
      ~apply:(fun d -> applied := d :: !applied)
      ~start:0 ~stop:(Time.sec 2) ()
  in
  Engine.run engine;
  Alcotest.(check int) "back to min after sustained quiet" 1
    (Autoscaler.desired a);
  (match Autoscaler.events a with
  | (t1, d1) :: _ ->
    Alcotest.(check int) "first move is the proportional jump" 3 d1;
    Alcotest.(check int) "at the first window tick" (Time.ms 100) t1
  | [] -> Alcotest.fail "autoscaler never moved");
  (* 1->3 up, then 3->2->1 down: exactly three transitions, no flap. *)
  Alcotest.(check int) "transition count" 3 (Autoscaler.transitions a);
  Alcotest.(check (list int)) "apply saw every transition" [ 1; 2; 3 ]
    !applied

(* Scale-down must drain, not strand: requests already accepted by a
   worker the autoscaler deactivates must still be served.  20 requests
   are fired at 2 ready workers (the second a warm standby, activated
   at setup) faster than they can serve; mid-burst the pool is scaled
   to 1.  Every accepted request must produce a reply. *)
let test_scale_down_drains () =
  let tb = Testbed.create ~num_vms:1 () in
  let site = ref None in
  Deploy.deploy_single tb ~mode:`NoCont ~name:"pod" ~entity:"server"
    ~port:9000 ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  let site = Option.get !site in
  let engine = tb.Testbed.engine in
  let pool =
    Netperf.udp_echo_pool ~ns:site.Deploy.site_ns ~port:site.Deploy.site_port
      ~new_exec:site.Deploy.site_new_exec ~service_cost:(Time.ms 1) ~max:2
      ~standby:1 ()
  in
  pool.Netperf.epool_set_active 2;
  Alcotest.(check int) "both workers ready" 2 (pool.Netperf.epool_ready ());
  let replies = ref 0 in
  let sock =
    Stack.Udp.bind tb.Testbed.client_ns ~port:9001
      (fun _ ~src:_ ~src_port:_ _ -> incr replies)
  in
  let payload = Nest_net.Payload.raw 64 in
  for i = 0 to 19 do
    Engine.schedule_at engine
      ~at:(Time.sec 1 + Time.ms 1 + (i * Time.us 200))
      (fun () ->
        Stack.Udp.sendto sock ~dst:site.Deploy.site_addr
          ~dst_port:site.Deploy.site_port payload)
  done;
  Engine.schedule_at engine
    ~at:(Time.sec 1 + Time.ms 3)
    (fun () -> pool.Netperf.epool_set_active 1);
  Testbed.run_until tb (Time.sec 2);
  Alcotest.(check int) "pool scaled down" 1 (pool.Netperf.epool_active ());
  Alcotest.(check int) "every request was accepted" 20
    (pool.Netperf.epool_served ());
  Alcotest.(check int) "no accepted request was stranded" 20 !replies

(* --- the closed loop on the fleet --------------------------------- *)

let overload_params admission autoscale rate =
  { Fig_fleet.default_params with
    Fig_fleet.nodes = 3;
    pods = 60;
    rate;
    admission;
    autoscale;
    service_us = 2000.0 }

(* --service-us is charged as whole nanoseconds: anything below 1 ns
   is an error, NaN included.  Above 1 s a pod's backlog of completions
   could reach past the event queue's 2^42 ns span (a quick run at
   1e8 us did), so that is refused too. *)
let test_service_us_validate () =
  List.iter
    (fun (us, ok) ->
      let got =
        Fig_fleet.validate { Fig_fleet.default_params with service_us = us }
      in
      Alcotest.(check bool) (Printf.sprintf "service-us %g" us) ok
        (Result.is_ok got))
    [ (1e300, false); (1e16, false); (5e9, false); (1000001.0, false);
      (1e-4, false); (Float.nan, false);
      (1e-3, true); (0.25, true); (2000.0, true); (1e6, true) ]

(* The largest accepted service time finishes a full run, fixed and
   codel admission, on the plain and the lossy link: each pod's backlog
   of completions stays inside the queue's span (10 s per request, ten
   times the ceiling, does not). *)
let test_service_us_ceiling_runs () =
  List.iter
    (fun (admission, name) ->
      let params =
        { Fig_fleet.default_params with
          Fig_fleet.nodes = 2; rate = 1e5; service_us = 1e6; admission;
          profile = Nest_net.Wire.profile name }
      in
      let s = Fig_fleet.summarize ~params ~quick:false () in
      Alcotest.(check bool)
        (Printf.sprintf "%s offered %d > 0" name s.Fig_fleet.s_offered)
        true (s.Fig_fleet.s_offered > 0))
    [ (`Fixed, "datacenter"); (`Codel, "lossy") ]

(* A rate so small that a node's goodput floor (a fifth of its share)
   underflows to 0 is an error, not an uncaught [Slo] exception; the
   smallest rate whose floor survives still runs. *)
let test_rate_floor_validate () =
  List.iter
    (fun (nodes, rate, ok) ->
      let got =
        Fig_fleet.validate { Fig_fleet.default_params with nodes; rate }
      in
      Alcotest.(check bool) (Printf.sprintf "%d nodes, rate %g" nodes rate)
        ok (Result.is_ok got))
    [ (4, 5e-324, false); (1, 5e-324, false); (4, 1e-320, true);
      (4, 40000.0, true) ]

(* Values that used to run without bound are refused, and each bound
   itself is accepted: rate, pods and standby on the fleet, standby on
   chaos.  Then every numeric field of both checks meets the same edge
   values (zero, -1, the extremes, NaN, the infinities and the smallest
   denormal): each is accepted exactly when it lies in the field's
   range. *)
let test_upper_bounds_validate () =
  let fleet name p ok =
    Alcotest.(check bool) name ok (Result.is_ok (Fig_fleet.validate p))
  in
  let d = { Fig_fleet.default_params with nodes = 4 } in
  fleet "rate 1e12" { d with rate = 1e12 } false;
  fleet "rate 1e300" { d with rate = 1e300 } false;
  fleet "rate 1e7" { d with rate = 1e7 } true;
  fleet "standby 1000000" { d with standby = 1_000_000 } false;
  fleet "standby 1025" { d with standby = 1025 } false;
  fleet "standby 1024" { d with standby = 1024 } true;
  fleet "pods 1000000000" { d with pods = 1_000_000_000 } false;
  fleet "pods 1000001" { d with pods = 1_000_001 } false;
  fleet "pods 1000000" { d with pods = 1_000_000 } true;
  fleet "nodes 1000000" { d with nodes = 1_000_000 } false;
  fleet "nodes 16385" { d with nodes = 16_385 } false;
  fleet "nodes 16384" { d with nodes = 16_384 } true;
  fleet "nodes 0" { d with nodes = 0 } false;
  Alcotest.check_raises "trace users 100001"
    (Invalid_argument
       "Trace_gen.generate: users must be in [0, 100000] (got 100001)")
    (fun () ->
      ignore (Nest_traces.Trace_gen.generate ~seed:1L ~users:100_001));
  Alcotest.check_raises "trace users -5"
    (Invalid_argument
       "Trace_gen.generate: users must be in [0, 100000] (got -5)")
    (fun () -> ignore (Nest_traces.Trace_gen.generate ~seed:1L ~users:(-5)));
  List.iter
    (fun (standby, ok) ->
      Alcotest.(check bool) (Printf.sprintf "chaos standby %d" standby) ok
        (Result.is_ok
           (Nest_experiments.Fig_chaos.validate ~rates:[ 0.3 ] ~standby)))
    [ (100_000, false); (1025, false); (-1, false); (1024, true); (0, true) ];
  let ints = [ 0; -1; max_int; min_int ]
  and floats =
    [ 0.0; -1.0; Float.nan; infinity; neg_infinity; 5e-324; max_float ]
  in
  let int_field name ~lo ~hi set =
    List.iter
      (fun v ->
        fleet (Printf.sprintf "%s %d" name v) (set v) (lo <= v && v <= hi))
      ints
  and float_field name in_range set =
    List.iter
      (fun v -> fleet (Printf.sprintf "%s %g" name v) (set v) (in_range v))
      floats
  in
  int_field "nodes" ~lo:1 ~hi:16_384 (fun nodes -> { d with nodes });
  int_field "pods" ~lo:0 ~hi:1_000_000 (fun pods -> { d with pods });
  int_field "standby" ~lo:0 ~hi:1024 (fun standby -> { d with standby });
  int_field "pods-max" ~lo:1 ~hi:max_int (fun pods_max -> { d with pods_max });
  float_field "rate" (fun r -> r = 1e7) (fun rate -> { d with rate });
  float_field "fault-rate"
    (fun r -> r >= 0.0 && r <= 1.0)
    (fun fault_rate -> { d with fault_rate });
  float_field "service-us" (fun _ -> false)
    (fun service_us -> { d with service_us });
  List.iter
    (fun r ->
      Alcotest.(check bool) (Printf.sprintf "chaos rate %g" r)
        (r >= 0.0 && r <= 1.0)
        (Result.is_ok
           (Nest_experiments.Fig_chaos.validate ~rates:[ 0.0; r ] ~standby:0)))
    floats;
  List.iter
    (fun standby ->
      Alcotest.(check bool) (Printf.sprintf "chaos standby %d" standby)
        (standby >= 0 && standby <= 1024)
        (Result.is_ok
           (Nest_experiments.Fig_chaos.validate ~rates:[ 0.3 ] ~standby)))
    ints

(* The ISSUE's acceptance criterion, verbatim: at 2x saturating offered
   load, burn admission (+ autoscaling) keeps the worst availability
   window burn below 1.0 and the completed-RTT p99 within 2x of the
   unloaded baseline; the fixed bound violates both. *)
let test_graceful_degradation () =
  let baseline =
    Fig_fleet.summarize ~params:(overload_params `Fixed false 300.0)
      ~shards:1 ~quick:false ()
  in
  let fixed =
    Fig_fleet.summarize ~params:(overload_params `Fixed true 3000.0)
      ~shards:1 ~quick:false ()
  in
  let burn =
    Fig_fleet.summarize ~params:(overload_params `Burn true 3000.0)
      ~shards:1 ~quick:false ()
  in
  Alcotest.(check bool) "baseline is actually unloaded" true
    (baseline.Fig_fleet.s_shed = 0 && baseline.Fig_fleet.s_lost = 0);
  Alcotest.(check bool)
    (Printf.sprintf "burn keeps availability burn < 1.0 (got %.2f)"
       burn.Fig_fleet.s_avail_worst_burn)
    true
    (burn.Fig_fleet.s_avail_worst_burn < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "fixed violates availability (worst burn %.2f)"
       fixed.Fig_fleet.s_avail_worst_burn)
    true
    (fixed.Fig_fleet.s_avail_worst_burn > 1.0);
  let budget = 2.0 *. baseline.Fig_fleet.s_p99_us in
  Alcotest.(check bool)
    (Printf.sprintf "burn p99 within 2x of baseline (%.0f <= %.0f us)"
       burn.Fig_fleet.s_p99_us budget)
    true
    (burn.Fig_fleet.s_p99_us <= budget);
  Alcotest.(check bool)
    (Printf.sprintf "fixed p99 blows the budget (%.0f > %.0f us)"
       fixed.Fig_fleet.s_p99_us budget)
    true
    (fixed.Fig_fleet.s_p99_us > budget);
  Alcotest.(check bool) "burn sheds early instead of losing" true
    (burn.Fig_fleet.s_shed > 0 && burn.Fig_fleet.s_lost < fixed.Fig_fleet.s_lost);
  Alcotest.(check bool) "the autoscaler actually scaled" true
    (burn.Fig_fleet.s_scale_events > 0 && burn.Fig_fleet.s_pods > 3)

(* Digest byte-identity across the shared shard/domain splits with the
   whole control loop live: admission ticks, autoscaler ticks, pool
   routing and cold starts are all digest material. *)
let test_control_loop_digest_determinism () =
  Alcotest.(check bool) "fleet check" true
    (Fig_fleet.check ~params:(overload_params `Burn true 3000.0) ~quick:true ())

let () =
  Alcotest.run "admission"
    [
      ( "admission",
        [
          Alcotest.test_case "burn books balance" `Quick test_burn_books;
          Alcotest.test_case "hysteresis no-flap" `Quick
            test_burn_hysteresis_no_flap;
          Alcotest.test_case "codel episode" `Quick test_codel_episode;
          Alcotest.test_case "decision cost" `Quick test_decision_cost;
        ] );
      ( "autoscaler",
        [
          Alcotest.test_case "trajectory" `Quick test_autoscaler_trajectory;
          Alcotest.test_case "scale-down drains" `Quick test_scale_down_drains;
        ] );
      ( "closed loop",
        [
          Alcotest.test_case "graceful degradation" `Quick
            test_graceful_degradation;
          Alcotest.test_case "digest determinism" `Quick
            test_control_loop_digest_determinism;
        ] );
      ( "fleet params",
        [
          Alcotest.test_case "service-us validation" `Quick
            test_service_us_validate;
          Alcotest.test_case "service-us ceiling runs" `Quick
            test_service_us_ceiling_runs;
          Alcotest.test_case "rate floor validation" `Quick
            test_rate_floor_validate;
          Alcotest.test_case "upper bounds validation" `Quick
            test_upper_bounds_validate;
        ] );
    ]
