type stats = {
  vms_removed : int;
  vms_downsized : int;
  containers_moved : int;
}

let epsilon = 1e-9

let fits v ~cpu ~mem =
  Kube_pack.vm_free_cpu v +. epsilon >= cpu
  && Kube_pack.vm_free_mem v +. epsilon >= mem

let move_out (v : Kube_pack.vm) entry =
  let _, (c : Nest_traces.Trace.container_req) = entry in
  (* Remove a single physical occurrence of [entry]. *)
  let removed = ref false in
  v.Kube_pack.contents <-
    List.filter
      (fun e ->
        if (not !removed) && e == entry then begin
          removed := true;
          false
        end
        else true)
      v.Kube_pack.contents;
  assert !removed;
  v.Kube_pack.used_cpu <- v.Kube_pack.used_cpu -. c.Nest_traces.Trace.c_cpu;
  v.Kube_pack.used_mem <- v.Kube_pack.used_mem -. c.Nest_traces.Trace.c_mem

let move_in (v : Kube_pack.vm) entry =
  let _, (c : Nest_traces.Trace.container_req) = entry in
  v.Kube_pack.contents <- entry :: v.Kube_pack.contents;
  v.Kube_pack.used_cpu <- v.Kube_pack.used_cpu +. c.Nest_traces.Trace.c_cpu;
  v.Kube_pack.used_mem <- v.Kube_pack.used_mem +. c.Nest_traces.Trace.c_mem

(* Wasted capacity, used to order eviction targets. *)
let waste v = Kube_pack.vm_free_cpu v +. Kube_pack.vm_free_mem v

(* Try to empty [victim] into the other VMs (most wasted space first,
   victim's smallest containers first).  All-or-nothing: partial spills
   would not release the VM.  Returns the number of containers moved. *)
(* VMs are compared by [vm_id] throughout: downsizing (and copies made
   by [Kube_pack.copy_plan]) produce records that are logically the same
   VM but physically distinct, so pointer identity silently stops
   matching after the first rewrite sweep. *)
let same_vm (a : Kube_pack.vm) (b : Kube_pack.vm) =
  a.Kube_pack.vm_id = b.Kube_pack.vm_id

let try_empty (plan : Kube_pack.plan) victim =
  let others =
    List.filter (fun v -> not (same_vm v victim)) plan.Kube_pack.vms
  in
  let contents =
    List.sort
      (fun (_, a) (_, b) ->
        compare
          (a.Nest_traces.Trace.c_cpu +. a.Nest_traces.Trace.c_mem)
          (b.Nest_traces.Trace.c_cpu +. b.Nest_traces.Trace.c_mem))
      victim.Kube_pack.contents
  in
  (* Tentative placement on copies of the free-space figures. *)
  let free =
    List.map
      (fun v -> (v, ref (Kube_pack.vm_free_cpu v), ref (Kube_pack.vm_free_mem v)))
      others
  in
  (* Most-wasted-first targets; ordered once per attempt (incremental
     re-sorting is quadratic on large fleets for no behavioral gain). *)
  let candidates =
    List.sort
      (fun (_, fc1, fm1) (_, fc2, fm2) ->
        compare (!fc2 +. !fm2) (!fc1 +. !fm1))
      free
  in
  let assignment = ref [] in
  let ok =
    List.for_all
      (fun ((_, c) as entry) ->
        match
          List.find_opt
            (fun (_, fc, fm) ->
              !fc +. epsilon >= c.Nest_traces.Trace.c_cpu && !fm +. epsilon >= c.Nest_traces.Trace.c_mem)
            candidates
        with
        | None -> false
        | Some (target, fc, fm) ->
          fc := !fc -. c.Nest_traces.Trace.c_cpu;
          fm := !fm -. c.Nest_traces.Trace.c_mem;
          assignment := (entry, target) :: !assignment;
          true)
      contents
  in
  if not ok then 0
  else begin
    List.iter
      (fun (entry, target) ->
        move_out victim entry;
        move_in target entry)
      !assignment;
    plan.Kube_pack.vms <-
      List.filter (fun v -> not (same_vm v victim)) plan.Kube_pack.vms;
    List.length !assignment
  end

(* Replace one VM by several smaller ones: pack its containers
   first-fit-decreasing into bins of a cheaper model and adopt the split
   when the bin set costs less.  This is the paper's motivating AWS
   example (a 6 vCPU / 24 GB pod on one m5.2xlarge for $0.448/h vs a
   large + xlarge for $0.336/h) generalized: Hostlo makes the split legal
   because the pod keeps a single localhost across the VMs. *)
let try_split_rebuy (plan : Kube_pack.plan) (v : Kube_pack.vm) =
  let contents =
    List.sort
      (fun (_, a) (_, b) ->
        compare
          (b.Nest_traces.Trace.c_cpu +. b.Nest_traces.Trace.c_mem)
          (a.Nest_traces.Trace.c_cpu +. a.Nest_traces.Trace.c_mem))
      v.Kube_pack.contents
  in
  let ffd_cost model =
    (* Returns (bins as (contents, cpu, mem) list) packing everything. *)
    let cap_cpu = Aws.rel_cpu model and cap_mem = Aws.rel_mem model in
    let bins = ref [] in
    let ok =
      List.for_all
        (fun ((_, c) as entry) ->
          if
            c.Nest_traces.Trace.c_cpu > cap_cpu +. epsilon
            || c.Nest_traces.Trace.c_mem > cap_mem +. epsilon
          then false
          else begin
            let placed =
              List.find_opt
                (fun (_, cpu, mem) ->
                  !cpu +. c.Nest_traces.Trace.c_cpu <= cap_cpu +. epsilon
                  && !mem +. c.Nest_traces.Trace.c_mem <= cap_mem +. epsilon)
                !bins
            in
            (match placed with
            | Some (items, cpu, mem) ->
              items := entry :: !items;
              cpu := !cpu +. c.Nest_traces.Trace.c_cpu;
              mem := !mem +. c.Nest_traces.Trace.c_mem
            | None ->
              bins :=
                !bins
                @ [ ( ref [ entry ],
                      ref c.Nest_traces.Trace.c_cpu,
                      ref c.Nest_traces.Trace.c_mem ) ]);
            true
          end)
        contents
    in
    if ok then Some !bins else None
  in
  let current = v.Kube_pack.vm_model.Aws.price_per_hour in
  let candidates =
    List.filter
      (fun m -> m.Aws.price_per_hour < current -. epsilon)
      Aws.models
  in
  let best =
    List.fold_left
      (fun acc model ->
        match ffd_cost model with
        | None -> acc
        | Some bins ->
          let cost =
            float_of_int (List.length bins) *. model.Aws.price_per_hour
          in
          (match acc with
          | Some (_, _, best_cost) when best_cost <= cost +. epsilon -> acc
          | _ -> Some (model, bins, cost)))
      None candidates
  in
  match best with
  | Some (model, bins, cost) when cost < current -. epsilon ->
    let fresh_id = ref (List.length plan.Kube_pack.vms + 1000 * v.Kube_pack.vm_id) in
    let replacements =
      List.map
        (fun (items, cpu, mem) ->
          incr fresh_id;
          { Kube_pack.vm_id = !fresh_id; vm_model = model;
            contents = !items; used_cpu = !cpu; used_mem = !mem })
        bins
    in
    plan.Kube_pack.vms <-
      List.filter (fun x -> not (same_vm x v)) plan.Kube_pack.vms @ replacements;
    Some (List.length replacements)
  | Some _ | None -> None

(* Downsize a VM to the cheapest model that still holds its contents. *)
let try_downsize (v : Kube_pack.vm) =
  match Aws.cheapest_fitting ~cpu:v.Kube_pack.used_cpu ~mem:v.Kube_pack.used_mem with
  | Some model
    when model.Aws.price_per_hour
         < v.Kube_pack.vm_model.Aws.price_per_hour -. epsilon ->
    Some { v with Kube_pack.vm_model = model }
  | Some _ | None -> None

(* Mutates the plan in place; terminates when no action reduces cost. *)
let improve (plan : Kube_pack.plan) =
  let removed = ref 0 and downsized = ref 0 and moved = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* (a) Eviction sweep: least-utilized VMs are the easiest wins.  A
       cheap total-free-space precheck prunes hopeless victims, which
       dominates on large fleets. *)
    let by_usage =
      List.sort
        (fun a b ->
          compare
            (a.Kube_pack.used_cpu +. a.Kube_pack.used_mem)
            (b.Kube_pack.used_cpu +. b.Kube_pack.used_mem))
        plan.Kube_pack.vms
    in
    List.iter
      (fun victim ->
        if
          List.length plan.Kube_pack.vms > 1
          && List.exists (same_vm victim) plan.Kube_pack.vms
        then begin
          let free_cpu, free_mem =
            List.fold_left
              (fun (fc, fm) v ->
                if same_vm v victim then (fc, fm)
                else
                  (fc +. Kube_pack.vm_free_cpu v, fm +. Kube_pack.vm_free_mem v))
              (0.0, 0.0) plan.Kube_pack.vms
          in
          if
            free_cpu +. epsilon >= victim.Kube_pack.used_cpu
            && free_mem +. epsilon >= victim.Kube_pack.used_mem
          then begin
            let n = try_empty plan victim in
            if n > 0 then begin
              incr removed;
              moved := !moved + n;
              progress := true
            end
          end
        end)
      by_usage;
    (* (b) Split-and-rebuy sweep: most expensive VMs first. *)
    let by_price =
      List.sort
        (fun a b ->
          compare b.Kube_pack.vm_model.Aws.price_per_hour
            a.Kube_pack.vm_model.Aws.price_per_hour)
        plan.Kube_pack.vms
    in
    List.iter
      (fun v ->
        if List.exists (same_vm v) plan.Kube_pack.vms then
          match try_split_rebuy plan v with
          | Some n ->
            incr removed;
            moved := !moved + n;
            progress := true
          | None -> ())
      by_price;
    (* (c) Downsizing sweep. *)
    plan.Kube_pack.vms <-
      List.map
        (fun v ->
          match try_downsize v with
          | Some v' ->
            incr downsized;
            progress := true;
            v'
          | None -> v)
        plan.Kube_pack.vms
  done;
  ignore waste;
  ignore fits;
  { vms_removed = !removed; vms_downsized = !downsized;
    containers_moved = !moved }

let improve_copy base =
  let plan = Kube_pack.copy_plan base in
  let stats = improve plan in
  Kube_pack.check_invariants plan;
  (plan, stats)
