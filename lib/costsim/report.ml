type outcome = {
  user_id : int;
  kube_cost : float;
  hostlo_cost : float;
  hostlo_standby_cost : float;
  split_pods : int;
  kube_vms : int;
  hostlo_vms : int;
  saving : float;
  rel_saving : float;
}

type summary = {
  users : int;
  users_with_savings : int;
  frac_with_savings : float;
  frac_savers_over_5pct : float;
  max_rel_saving : float;
  max_abs_saving : float;
  max_abs_saving_rel : float;
  total_kube_cost : float;
  total_hostlo_cost : float;
  total_standby_cost : float;
  total_split_pods : int;
}

(* A pooled Hostlo standby endpoint is an ivshmem BAR plus a queue pair
   pinned in guest memory; pre-provisioning [depth] of them per
   (VM, split pod) buys QMP-free failover (see Hostlo.make_config) at a
   memory price.  4 MiB per endpoint, expressed in the trace's relative
   units (fractions of the 24xlarge's 384 GB). *)
let standby_ep_mem = 4.0 /. (384.0 *. 1024.0)

(* Pods whose containers ended up on more than one VM — only those go
   through the reflector, so only those carry a standby pool. *)
let split_pod_counts (plan : Kube_pack.plan) =
  let vms_of_pod = Hashtbl.create 64 in
  List.iter
    (fun vm ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (pod, _) ->
          if not (Hashtbl.mem seen pod) then begin
            Hashtbl.add seen pod ();
            Hashtbl.replace vms_of_pod pod
              (1 + Option.value ~default:0 (Hashtbl.find_opt vms_of_pod pod))
          end)
        vm.Kube_pack.contents)
    plan.Kube_pack.vms;
  vms_of_pod

(* Re-price the plan with the pool's memory added to each VM's demand:
   the same "cheapest fitting model" rule the packer itself uses, so a
   VM that standby memory pushes over its model's capacity is bought one
   size up rather than silently overcommitted. *)
let standby_priced_cost ~depth (plan : Kube_pack.plan) =
  if depth = 0 then Kube_pack.plan_cost plan
  else begin
    let vms_of_pod = split_pod_counts plan in
    List.fold_left
      (fun acc vm ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (pod, _) -> Hashtbl.replace seen pod ())
          vm.Kube_pack.contents;
        let split_here =
          Hashtbl.fold
            (fun pod () n ->
              if Option.value ~default:0 (Hashtbl.find_opt vms_of_pod pod) > 1
              then n + 1
              else n)
            seen 0
        in
        let overhead = float_of_int (depth * split_here) *. standby_ep_mem in
        let bought = vm.Kube_pack.vm_model.Aws.price_per_hour in
        let price =
          match
            Aws.cheapest_fitting ~cpu:vm.Kube_pack.used_cpu
              ~mem:(vm.Kube_pack.used_mem +. overhead)
          with
          | Some m -> Float.max m.Aws.price_per_hour bought
          | None -> bought
        in
        acc +. price)
      0.0 plan.Kube_pack.vms
  end

let evaluate_user ~standby_depth user =
  let base = Kube_pack.pack_user user in
  Kube_pack.check_invariants base;
  let kube_cost = Kube_pack.plan_cost base in
  let kube_vms = Kube_pack.plan_vm_count base in
  let plan, _stats = Hostlo_pack.improve_copy base in
  let hostlo_cost = Kube_pack.plan_cost plan in
  let hostlo_standby_cost = standby_priced_cost ~depth:standby_depth plan in
  let split_pods =
    Hashtbl.fold
      (fun _ n acc -> if n > 1 then acc + 1 else acc)
      (split_pod_counts plan) 0
  in
  let saving = Float.max 0.0 (kube_cost -. hostlo_cost) in
  { user_id = user.Nest_traces.Trace.u_id; kube_cost; hostlo_cost;
    hostlo_standby_cost; split_pods; kube_vms;
    hostlo_vms = Kube_pack.plan_vm_count plan; saving;
    rel_saving = (if kube_cost > 0.0 then saving /. kube_cost else 0.0) }

let evaluate users = List.map (evaluate_user ~standby_depth:0) users

let summarize outcomes =
  let users = List.length outcomes in
  let savers = List.filter (fun o -> o.saving > 1e-9) outcomes in
  let users_with_savings = List.length savers in
  let over5 = List.filter (fun o -> o.rel_saving > 0.05) savers in
  let max_rel =
    List.fold_left (fun a o -> Float.max a o.rel_saving) 0.0 outcomes
  in
  let best_abs =
    List.fold_left
      (fun acc o ->
        match acc with
        | Some b when b.saving >= o.saving -> acc
        | _ -> Some o)
      None outcomes
  in
  let max_abs, max_abs_rel =
    match best_abs with
    | Some o -> (o.saving, o.rel_saving)
    | None -> (0.0, 0.0)
  in
  { users;
    users_with_savings;
    frac_with_savings =
      (if users = 0 then 0.0
       else float_of_int users_with_savings /. float_of_int users);
    frac_savers_over_5pct =
      (if users_with_savings = 0 then 0.0
       else float_of_int (List.length over5) /. float_of_int users_with_savings);
    max_rel_saving = max_rel;
    max_abs_saving = max_abs;
    max_abs_saving_rel = max_abs_rel;
    total_kube_cost = List.fold_left (fun a o -> a +. o.kube_cost) 0.0 outcomes;
    total_hostlo_cost =
      List.fold_left (fun a o -> a +. o.hostlo_cost) 0.0 outcomes;
    total_standby_cost =
      List.fold_left (fun a o -> a +. o.hostlo_standby_cost) 0.0 outcomes;
    total_split_pods =
      List.fold_left (fun a o -> a + o.split_pods) 0 outcomes }

let savings_histogram outcomes ~bins =
  let savers = List.filter (fun o -> o.saving > 1e-9) outcomes in
  let max_rel =
    List.fold_left (fun a o -> Float.max a o.rel_saving) 0.0 savers
  in
  if savers = [] || max_rel <= 0.0 then []
  else begin
    let h = Nest_sim.Stats.Histogram.create ~lo:0.0 ~hi:max_rel ~bins in
    List.iter (fun o -> Nest_sim.Stats.Histogram.add h o.rel_saving) savers;
    Array.to_list (Nest_sim.Stats.Histogram.counts h)
    |> List.mapi (fun i c ->
           let lo, hi = Nest_sim.Stats.Histogram.bin_bounds h i in
           (lo, hi, c))
  end

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>users: %d@,\
     users with savings: %d (%.1f%%)@,\
     savers above 5%%: %.1f%%@,\
     max relative saving: %.1f%%@,\
     max absolute saving: %.2f $/h (a %.1f%% reduction)@,\
     fleet cost: %.2f -> %.2f $/h@]"
    s.users s.users_with_savings
    (100.0 *. s.frac_with_savings)
    (100.0 *. s.frac_savers_over_5pct)
    (100.0 *. s.max_rel_saving)
    s.max_abs_saving
    (100.0 *. s.max_abs_saving_rel)
    s.total_kube_cost s.total_hostlo_cost;
  if s.total_standby_cost > s.total_hostlo_cost then
    Format.fprintf fmt
      "@,standby pool: %.2f $/h over %d split pods (+%.3f%% of the \
       Hostlo fleet cost)"
      (s.total_standby_cost -. s.total_hostlo_cost)
      s.total_split_pods
      (if s.total_hostlo_cost > 0.0 then
         100.0
         *. (s.total_standby_cost -. s.total_hostlo_cost)
         /. s.total_hostlo_cost
       else 0.0)
