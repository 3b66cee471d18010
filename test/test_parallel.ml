(* Domain-parallel experiment harness: Domain_pool semantics and the
   determinism guard — fanning cells across domains must change
   wall-clock only, never results. *)

module Domain_pool = Nest_sim.Domain_pool
module Par = Nest_experiments.Exp_util.Par

let test_pool_preserves_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Domain_pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 7; 100; 200 ]

let test_pool_empty_and_small () =
  Alcotest.(check (list int)) "empty input" []
    (Domain_pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "one item" [ 3 ]
    (Domain_pool.map ~jobs:4 (fun x -> x + 1) [ 2 ]);
  Alcotest.(check (list int)) "jobs=0 degrades to sequential" [ 1; 2 ]
    (Domain_pool.map ~jobs:0 Fun.id [ 1; 2 ])

exception Boom of int

let test_pool_reraises () =
  Alcotest.check_raises "first failing index wins" (Boom 3) (fun () ->
      ignore
        (Domain_pool.map ~jobs:4
           (fun x -> if x >= 3 then raise (Boom x) else x)
           [ 0; 1; 2; 3; 4; 5 ]));
  (* All domains must have joined: the pool is reusable after a failure. *)
  Alcotest.(check (list int)) "pool usable after exception" [ 0; 2; 4 ]
    (Domain_pool.map ~jobs:2 (fun x -> 2 * x) [ 0; 1; 2 ])

(* More parties than the runtime's domain limit are refused up front:
   nothing is spawned and no cell runs.  A surplus of jobs over cells is
   not an excess. *)
let test_pool_domain_limit () =
  let calls = Atomic.make 0 in
  let f x = Atomic.incr calls; x in
  let n = Domain_pool.max_domains + 1 in
  Alcotest.check_raises "129 parties refused"
    (Invalid_argument "Domain_pool.map: 129 domains exceed the runtime's 128")
    (fun () -> ignore (Domain_pool.map ~jobs:n f (List.init n Fun.id)));
  Alcotest.(check int) "no cell ran" 0 (Atomic.get calls);
  Alcotest.(check (list int)) "jobs above the limit, one cell" [ 7 ]
    (Domain_pool.map ~jobs:n f [ 7 ])

let test_pool_actually_parallel () =
  (* With 4 domains and 4 sleepers, wall-clock must be well under the
     sequential sum (generous bound to stay robust on loaded hosts). *)
  let t0 = Unix.gettimeofday () in
  ignore (Domain_pool.map ~jobs:4 (fun _ -> Unix.sleepf 0.2) [ (); (); (); () ]);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "4x 200ms sleeps in %.2fs < 0.75s" dt)
    true (dt < 0.75)

(* ------------------------------------------------------------------ *)
(* Determinism guard: the real harness path at --jobs 1 vs --jobs 4. *)

let sweep () =
  Nest_experiments.Fig_netperf.sweep_single ~quick:true ~mode:`Nat
    ~sizes:[ 64; 1024 ]

let test_jobs_determinism () =
  Par.set_jobs 1;
  let serial = sweep () in
  Par.set_jobs 4;
  let parallel = sweep () in
  Par.set_jobs 1;
  Alcotest.(check int) "same number of points" (List.length serial)
    (List.length parallel);
  let open Nest_experiments.Fig_netperf in
  List.iter2
    (fun (s : point) (p : point) ->
      Alcotest.(check int) "size" s.size p.size;
      Alcotest.(check (float 0.0)) "mbps bit-identical" s.mbps p.mbps;
      Alcotest.(check (float 0.0)) "latency bit-identical" s.lat_mean_us
        p.lat_mean_us;
      Alcotest.(check (float 0.0)) "latency sd bit-identical" s.lat_sd_us
        p.lat_sd_us)
    serial parallel

let () =
  Alcotest.run "parallel"
    [ ( "domain_pool",
        [ Alcotest.test_case "order preserved" `Quick test_pool_preserves_order;
          Alcotest.test_case "edge cases" `Quick test_pool_empty_and_small;
          Alcotest.test_case "exceptions re-raised" `Quick test_pool_reraises;
          Alcotest.test_case "domain limit" `Quick test_pool_domain_limit;
          Alcotest.test_case "parallel wall-clock" `Quick
            test_pool_actually_parallel ] );
      ( "determinism",
        [ Alcotest.test_case "jobs=1 equals jobs=4" `Quick
            test_jobs_determinism ] ) ]
