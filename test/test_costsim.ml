(* Tests for the trace generator and the Fig. 9 cost simulation. *)

module Trace = Nest_traces.Trace
module Trace_gen = Nest_traces.Trace_gen
module Aws = Nest_costsim.Aws
module Kube_pack = Nest_costsim.Kube_pack
module Hostlo_pack = Nest_costsim.Hostlo_pack
module Report = Nest_costsim.Report

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Table 2 data *)

let test_aws_models () =
  let find name = List.find (fun m -> m.Aws.model_name = name) Aws.models in
  Alcotest.(check int) "six models" 6 (List.length Aws.models);
  let m = find "2xlarge" in
  Alcotest.(check int) "2xlarge vcpus" 8 m.Aws.vcpus;
  Alcotest.(check (float 1e-9)) "2xlarge price" 0.448 m.Aws.price_per_hour;
  Alcotest.(check (float 1e-4)) "relative cpu of large" 0.0208
    (Aws.rel_cpu (find "large"));
  Alcotest.(check (float 1e-9)) "24xlarge is the unit" 1.0
    (Aws.rel_cpu (find "24xlarge"));
  (* Prices are increasing with size. *)
  let prices = List.map (fun m -> m.Aws.price_per_hour) Aws.models in
  Alcotest.(check bool) "sorted by price" true
    (List.sort compare prices = prices)

let test_cheapest_fitting () =
  (* The paper's motivating pod: 6 vCPU / 24 GB. *)
  let cpu = 6.0 /. 96.0 and mem = 24.0 /. 384.0 in
  (match Aws.cheapest_fitting ~cpu ~mem with
  | Some m -> Alcotest.(check string) "needs a 2xlarge whole" "2xlarge" m.Aws.model_name
  | None -> Alcotest.fail "nothing fits");
  Alcotest.(check bool) "too big for any model" true
    (Aws.cheapest_fitting ~cpu:1.5 ~mem:0.1 = None)

(* ------------------------------------------------------------------ *)
(* Trace generator *)

let test_trace_gen_deterministic () =
  let a = Trace_gen.generate ~seed:5L ~users:30 in
  let b = Trace_gen.generate ~seed:5L ~users:30 in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = Trace_gen.generate ~seed:6L ~users:30 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_trace_gen_bounds =
  QCheck.Test.make ~name:"generated demands are positive and sub-machine"
    ~count:20 QCheck.int64
    (fun seed ->
      let users = Trace_gen.generate ~seed ~users:10 in
      List.for_all
        (fun u ->
          List.for_all
            (fun p ->
              p.Trace.p_containers <> []
              && List.for_all
                   (fun c ->
                     c.Trace.c_cpu > 0.0 && c.Trace.c_cpu <= 1.0
                     && c.Trace.c_mem > 0.0 && c.Trace.c_mem <= 1.0)
                   p.Trace.p_containers)
            u.Trace.pods)
        users)

let test_trace_csv_roundtrip () =
  let users = Trace_gen.generate ~seed:12L ~users:20 in
  let path = Filename.temp_file "trace" ".csv" in
  let oc = open_out path in
  Trace.output_csv oc users;
  close_out oc;
  let back = In_channel.with_open_text path Trace.input_csv in
  Sys.remove path;
  Alcotest.(check int) "user count" (List.length users) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "pods" (Trace.user_pods a) (Trace.user_pods b);
      Alcotest.(check int) "containers" (Trace.user_containers a)
        (Trace.user_containers b))
    users back

(* The fleet's churn replay takes its demands from [first_pods].  The
   reference rebuilds them the long way: whole traces at 64, 128, 256 …
   users until one holds [pods] pods (or passes a million users), then
   its first [pods] pods.  Cases per seed: no pod, one, the first user's
   pod count and either side of it, and the benchmark fleet's 6400. *)
let doubled_prefix ~seed pods =
  let rec grow u =
    let users = Trace_gen.generate ~seed ~users:u in
    let total = List.fold_left (fun a us -> a + Trace.user_pods us) 0 users in
    if total >= pods || u > 1_000_000 then users else grow (u * 2)
  in
  if pods = 0 then []
  else
    List.filteri (fun i _ -> i < pods)
      (List.concat_map (fun u -> u.Trace.pods) (grow 64))

let test_first_pods_is_prefix () =
  List.iter
    (fun seed ->
      let first_user =
        Trace.user_pods (List.hd (Trace_gen.generate ~seed ~users:1))
      in
      List.iter
        (fun pods ->
          let got = Trace_gen.first_pods ~seed ~max_users:(1 lsl 20) pods in
          Alcotest.(check int)
            (Printf.sprintf "seed %Ld, %d pods: count" seed pods)
            pods (Array.length got);
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld, %d pods: same pods" seed pods)
            true
            (Array.to_list got = doubled_prefix ~seed pods))
        (List.sort_uniq compare
           [ 0; 1; max 1 (first_user - 1); first_user; first_user + 1; 6400 ]))
    [ 1L; 7L; 42L; 2026L; 99991L ]

(* ------------------------------------------------------------------ *)
(* Packing *)

let small_users = Trace_gen.generate ~seed:99L ~users:40

let test_kube_pack_invariants () =
  List.iter
    (fun user ->
      let plan = Kube_pack.pack_user user in
      Kube_pack.check_invariants plan)
    small_users

let test_kube_pack_whole_pod () =
  (* Baseline: every pod's containers co-located on a single VM. *)
  List.iter
    (fun user ->
      let plan = Kube_pack.pack_user user in
      let vm_of_pod = Hashtbl.create 16 in
      List.iter
        (fun vm ->
          List.iter
            (fun (pod_id, _) ->
              match Hashtbl.find_opt vm_of_pod pod_id with
              | None -> Hashtbl.add vm_of_pod pod_id vm
              | Some vm' ->
                if vm' != vm then
                  Alcotest.failf "pod %d of user %d split by the baseline"
                    pod_id user.Trace.u_id)
            vm.Kube_pack.contents)
        plan.Kube_pack.vms)
    small_users

let test_hostlo_improve_never_worse =
  QCheck.Test.make ~name:"hostlo pass never increases cost; invariants hold"
    ~count:15 QCheck.int64
    (fun seed ->
      let users = Trace_gen.generate ~seed ~users:8 in
      List.for_all
        (fun user ->
          let base = Kube_pack.pack_user user in
          let base_cost = Kube_pack.plan_cost base in
          let improved, _ = Hostlo_pack.improve_copy base in
          Kube_pack.check_invariants improved;
          Kube_pack.plan_cost improved <= base_cost +. 1e-9
          (* The baseline plan is untouched. *)
          && abs_float (Kube_pack.plan_cost base -. base_cost) < 1e-12)
        users)

let test_split_rebuy_example () =
  (* The paper's AWS example: one pod of three 2-vCPU/8-GB containers
     (6 vCPU / 24 GB total) costs $0.448/h whole, but $0.336/h split. *)
  let c = { Trace.c_cpu = 2.0 /. 96.0; c_mem = 8.0 /. 384.0 } in
  let user =
    { Trace.u_id = 0;
      pods = [ { Trace.p_id = 0; p_containers = [ c; c; c ] } ] }
  in
  let base = Kube_pack.pack_user user in
  Alcotest.(check (float 1e-9)) "baseline buys a 2xlarge" 0.448
    (Kube_pack.plan_cost base);
  let improved, stats = Hostlo_pack.improve_copy base in
  Alcotest.(check (float 1e-9)) "hostlo splits into 3 larges" 0.336
    (Kube_pack.plan_cost improved);
  Alcotest.(check bool) "containers moved" true
    (stats.Hostlo_pack.containers_moved > 0
    || stats.Hostlo_pack.vms_removed > 0)

let test_report_summary () =
  let users = Trace_gen.generate ~seed:2026L ~users:60 in
  let outcomes = Report.evaluate users in
  let s = Report.summarize outcomes in
  Alcotest.(check int) "population" 60 s.Report.users;
  Alcotest.(check bool) "hostlo never more expensive in aggregate" true
    (s.Report.total_hostlo_cost <= s.Report.total_kube_cost +. 1e-9);
  List.iter
    (fun o ->
      Alcotest.(check bool) "per-user saving sane" true
        (o.Report.saving >= 0.0 && o.Report.rel_saving <= 1.0);
      Alcotest.(check bool) "vm counts positive" true (o.Report.kube_vms > 0))
    outcomes;
  let hist = Report.savings_histogram outcomes ~bins:8 in
  let total = List.fold_left (fun a (_, _, c) -> a + c) 0 hist in
  Alcotest.(check int) "histogram covers all savers" s.Report.users_with_savings
    total

let () =
  Alcotest.run "costsim"
    [ ( "aws",
        [ Alcotest.test_case "table 2 values" `Quick test_aws_models;
          Alcotest.test_case "cheapest fitting" `Quick test_cheapest_fitting ] );
      ( "trace",
        [ Alcotest.test_case "deterministic" `Quick test_trace_gen_deterministic;
          qtest test_trace_gen_bounds;
          Alcotest.test_case "churn pods are the doubled trace's prefix" `Quick
            test_first_pods_is_prefix;
          Alcotest.test_case "csv roundtrip" `Quick test_trace_csv_roundtrip ] );
      ( "packing",
        [ Alcotest.test_case "kube invariants" `Quick test_kube_pack_invariants;
          Alcotest.test_case "whole-pod placement" `Quick test_kube_pack_whole_pod;
          qtest test_hostlo_improve_never_worse;
          Alcotest.test_case "paper's split example" `Quick test_split_rebuy_example;
          Alcotest.test_case "report summary" `Quick test_report_summary ] ) ]
