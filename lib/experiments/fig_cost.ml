module Aws = Nest_costsim.Aws
module Report = Nest_costsim.Report

let table2 () =
  Exp_util.header "Table 2 — AWS EC2 m5 models";
  Printf.printf "%-10s %6s %8s %12s %12s %10s\n" "Model" "vCPU" "Mem(GB)"
    "vCPU (rel.)" "Mem (rel.)" "Price";
  List.iter
    (fun (name, vcpu, mem, rc, rm, price) ->
      Printf.printf "%-10s %6d %8d %12.4f %12.4f %9.3f/h\n" name vcpu mem rc
        rm price)
    Aws.table2_rows

let fig9 ~quick =
  Exp_util.header "Fig. 9 — Hostlo cost savings over cluster traces";
  let users = if quick then 150 else Nest_traces.Trace_gen.default_users in
  let trace = Nest_traces.Trace_gen.generate ~seed:2026L ~users in
  (* Each user's packing evaluation is independent: the pool hands the
     domains one user at a time. *)
  let outcomes =
    Exp_util.Par.map (Report.evaluate_user ~standby_depth:2) trace
  in
  let summary = Report.summarize outcomes in
  Format.printf "%a@." Report.pp_summary summary;
  Printf.printf "  relative-savings histogram (saving users):\n";
  List.iter
    (fun (lo, hi, count) ->
      if count > 0 then
        Printf.printf "    %5.1f%% - %5.1f%% : %s (%d)\n" (100. *. lo)
          (100. *. hi)
          (String.make (min 60 count) '#')
          count)
    (Report.savings_histogram outcomes ~bins:12);
  Exp_util.kv "users with reduced cost (paper: ~11.4%)"
    (Printf.sprintf "%.1f%%" (100.0 *. summary.Report.frac_with_savings));
  Exp_util.kv "savers above 5% (paper: ~66.7%)"
    (Printf.sprintf "%.1f%%" (100.0 *. summary.Report.frac_savers_over_5pct));
  Exp_util.kv "max relative saving (paper: ~40%)"
    (Printf.sprintf "%.1f%%" (100.0 *. summary.Report.max_rel_saving));
  Exp_util.kv "largest saver (paper: ~237 $/h, a ~35% reduction)"
    (Printf.sprintf "%.2f $/h (%.1f%%)" summary.Report.max_abs_saving
       (100.0 *. summary.Report.max_abs_saving_rel));
  Exp_util.kv "standby pool premium (depth 2, 4 MiB/endpoint)"
    (Printf.sprintf "%.2f $/h over %d split pods"
       (summary.Report.total_standby_cost -. summary.Report.total_hostlo_cost)
       summary.Report.total_split_pods)
