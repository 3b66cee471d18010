(* Tests for the benchmark applications (netperf, memcached/memtier,
   nginx/wrk2, kafka/producer-perf).  All run on short windows. *)

open Nestfusion
module Time = Nest_sim.Time
module Stats = Nest_sim.Stats
module App = Nest_workloads.App
module Netperf = Nest_workloads.Netperf
module Memcached = Nest_workloads.Memcached
module Nginx = Nest_workloads.Nginx
module Kafka = Nest_workloads.Kafka

let single mode port =
  let tb = Testbed.create ~num_vms:1 () in
  let site = ref None in
  Deploy.deploy_single tb ~mode ~name:"pod" ~entity:"server" ~port
    ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  (tb, App.of_single tb (Option.get !site))

let test_netperf_stream_sane () =
  let tb, ep = single `NoCont 7000 in
  let r = Netperf.tcp_stream tb ep ~msg_size:1024 ~duration:(Time.ms 100) () in
  Alcotest.(check bool) "throughput positive" true (r.Netperf.mbps > 100.0);
  Alcotest.(check bool) "bytes delivered" true (r.Netperf.bytes_delivered > 0);
  Alcotest.(check bool) "sends happened" true (r.Netperf.sends > 0);
  (* Payload conservation: delivered bytes over the window can't exceed
     what the message size times sends could produce overall. *)
  Alcotest.(check bool) "no byte inflation" true
    (r.Netperf.bytes_delivered <= r.Netperf.sends * 1024)

let test_netperf_rr_sane () =
  let tb, ep = single `NoCont 7001 in
  let r = Netperf.udp_rr tb ep ~msg_size:256 ~duration:(Time.ms 100) () in
  Alcotest.(check bool) "transactions counted" true (r.Netperf.transactions > 100);
  Alcotest.(check int) "one latency sample per transaction"
    r.Netperf.transactions (Stats.count r.Netperf.latency);
  Alcotest.(check bool) "strictly serial: rate = 1/latency" true
    (let mean_us = Stats.mean r.Netperf.latency in
     let implied = 100_000.0 /. mean_us in
     abs_float (implied -. float_of_int r.Netperf.transactions)
     /. implied < 0.15)

let test_netperf_throughput_grows_with_size () =
  let at size =
    let tb, ep = single `NoCont 7000 in
    (Netperf.tcp_stream tb ep ~msg_size:size ~duration:(Time.ms 100) ()).Netperf.mbps
  in
  Alcotest.(check bool) "64B << 4096B" true (at 64 < at 4096)

let test_memcached_ratio_and_loop () =
  let tb, ep = single `NoCont 11211 in
  let r = Memcached.run tb ep ~duration:(Time.ms 200) () in
  Alcotest.(check bool) "responses" true (r.Memcached.responses_per_sec > 1000.0);
  let total = r.Memcached.gets + r.Memcached.sets in
  Alcotest.(check bool) "issued requests" true (total > 0);
  let set_frac = float_of_int r.Memcached.sets /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "SET fraction ~1/11 (got %.3f)" set_frac)
    true
    (set_frac > 0.04 && set_frac < 0.15);
  Alcotest.(check bool) "latency samples exist" true
    (Stats.count r.Memcached.latency > 100)

let test_nginx_rate_and_latency () =
  let tb, ep = single `NoCont 80 in
  let r =
    Nginx.run tb ep ~containerized:false ~duration:(Time.ms 400) ()
  in
  (* Open loop at Table 1's 10k/s against a native server: the achieved
     rate must be close to the offered rate. *)
  Alcotest.(check bool)
    (Printf.sprintf "achieved ~offered (got %.0f)" r.Nginx.achieved_rate)
    true
    (abs_float (r.Nginx.achieved_rate -. 10_000.0) /. 10_000.0 < 0.1);
  (* wrk2-style latency from intended time: at low rate it is close to
     service + network; always above the native service floor. *)
  Alcotest.(check bool) "latency above service floor" true
    (Stats.mean r.Nginx.latency > 100.0)

let test_nginx_containerized_slower () =
  let lat containerized =
    let tb, ep = single (if containerized then `Brfusion else `NoCont) 80 in
    let r =
      Nginx.run tb ep ~containerized ~duration:(Time.ms 300) ()
    in
    Stats.mean r.Nginx.latency
  in
  Alcotest.(check bool) "containerized service is slower" true
    (lat true > lat false)

let test_kafka_batching () =
  let tb, ep = single `NoCont 9092 in
  let r = Kafka.run tb ep ~duration:(Time.ms 300) () in
  Alcotest.(check bool) "records flowed" true (r.Kafka.records > 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "rate ~120k/s (got %.0f)" r.Kafka.msgs_per_sec)
    true
    (abs_float (r.Kafka.msgs_per_sec -. 120_000.0) /. 120_000.0 < 0.1);
  (* 8192-byte batches of 170-byte records: ~48 records per batch. *)
  let per_batch = float_of_int r.Kafka.records /. float_of_int r.Kafka.batches in
  Alcotest.(check bool)
    (Printf.sprintf "records per batch ~48 (got %.1f)" per_batch)
    true
    (per_batch > 40.0 && per_batch < 56.0);
  (* Latency includes accumulation: mean must exceed the pure broker
     service time. *)
  Alcotest.(check bool) "latency includes batching wait" true
    (Stats.mean r.Kafka.latency > 160.0)

let test_kafka_linger_flush () =
  (* At a rate too low to fill a batch, the linger timer must flush:
     records still flow, in small batches. *)
  let tb, ep = single `NoCont 9092 in
  let r =
    Kafka.run tb ep ~rate_per_sec:1_000 ~duration:(Time.ms 300) ()
  in
  Alcotest.(check bool) "records flowed at low rate" true (r.Kafka.records > 100);
  let per_batch = float_of_int r.Kafka.records /. float_of_int r.Kafka.batches in
  Alcotest.(check bool)
    (Printf.sprintf "small linger-bound batches (got %.1f)" per_batch)
    true (per_batch < 10.0)

let test_cpu_snapshots () =
  let tb, ep = single `Nat 11211 in
  let before = App.Cpu_snap.take tb.Testbed.acct in
  ignore (Memcached.run tb ep ~duration:(Time.ms 100) ());
  let after = App.Cpu_snap.take tb.Testbed.acct in
  let window = Time.ms 200 in
  let soft =
    App.Cpu_snap.diff_cores ~before ~after ~entity:"vm1"
      Nest_sim.Cpu_account.Soft ~window
  in
  Alcotest.(check bool) "NAT burns guest softirq time" true (soft > 0.05)

let test_pool_least_loaded () =
  let e = Nest_sim.Engine.create () in
  let made = ref 0 in
  let pool =
    App.Pool.create
      (fun name ->
        incr made;
        Nest_sim.Exec.create e ~name)
      ~n:3 ~name:"p"
  in
  Alcotest.(check int) "three workers" 3 !made;
  let finish = ref [] in
  for _ = 1 to 3 do
    App.Pool.submit pool ~cost:100 (fun () ->
        finish := Nest_sim.Engine.now e :: !finish)
  done;
  App.Pool.submit pool ~cost:100 (fun () ->
      finish := Nest_sim.Engine.now e :: !finish);
  Nest_sim.Engine.run e;
  Alcotest.(check (list int)) "3 parallel + 1 queued" [ 100; 100; 100; 200 ]
    (List.sort compare !finish)

let () =
  Alcotest.run "workloads"
    [ ( "netperf",
        [ Alcotest.test_case "stream" `Quick test_netperf_stream_sane;
          Alcotest.test_case "udp_rr" `Quick test_netperf_rr_sane;
          Alcotest.test_case "size scaling" `Quick
            test_netperf_throughput_grows_with_size ] );
      ( "memcached",
        [ Alcotest.test_case "ratio+loop" `Quick test_memcached_ratio_and_loop ]
      );
      ( "nginx",
        [ Alcotest.test_case "rate+latency" `Quick test_nginx_rate_and_latency;
          Alcotest.test_case "containerized slower" `Quick
            test_nginx_containerized_slower ] );
      ( "kafka",
        [ Alcotest.test_case "batching" `Quick test_kafka_batching;
          Alcotest.test_case "linger" `Quick test_kafka_linger_flush ] );
      ( "plumbing",
        [ Alcotest.test_case "cpu snapshots" `Quick test_cpu_snapshots;
          Alcotest.test_case "worker pool" `Quick test_pool_least_loaded ] ) ]
