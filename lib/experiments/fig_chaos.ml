(* Chaos experiment: fault injection & recovery across the four
   deployment modes (§3 BrFusion, §4 Hostlo, and their two baselines).

   Each (mode, rate) cell is a private testbed running a pod-start storm
   under management-plane fault rates concurrently with a served cell —
   a probed echo service by default, or a live workload (netperf UDP_RR,
   memcached) — whose serving VM is crashed and restarted on a trial
   schedule (see lib/fault/Chaos).  Cells are independent, so they fan
   out over [Par] like the netperf sweeps; printing stays in
   deterministic (mode, rate) order regardless of --jobs. *)

module Chaos = Nest_fault.Chaos

let default_rates = [ 0.0; 0.1; 0.3; 0.5 ]

let cells rates =
  List.concat_map
    (fun mode -> List.map (fun rate -> (mode, rate)) rates)
    Chaos.all_modes

(* NaN fails the range test, as it must: each rate is a probability. *)
let validate ~rates ~standby =
  match List.find_opt (fun r -> not (r >= 0.0 && r <= 1.0)) rates with
  | Some r -> Error (Printf.sprintf "rates must be in [0,1] (got %g)" r)
  | None ->
    if standby >= 0 && standby <= Exp_util.max_standby then Ok ()
    else
      Error
        (Printf.sprintf "standby must be in [0, %d] (got %d)"
           Exp_util.max_standby standby)

let validated ~rates ~standby =
  match validate ~rates ~standby with
  | Ok () -> ()
  | Error msg -> invalid_arg ("fig_chaos: " ^ msg)

let run ?(rates = default_rates) ?(seed = 42L) ?(workload = Chaos.Probe)
    ?(standby = 0) ~quick () =
  validated ~rates ~standby;
  Exp_util.header
    (Printf.sprintf
       "Chaos: availability & recovery under injected faults (workload=%s%s)"
       (Chaos.workload_to_string workload)
       (if standby > 0 then Printf.sprintf ", standby=%d" standby else ""));
  let outcomes =
    Exp_util.Par.map
      (fun (mode, rate) ->
        Chaos.run_cell ~quick ~workload ~standby ~mode ~rate ~seed ())
      (cells rates)
  in
  let current = ref "" in
  List.iter
    (fun o ->
      if o.Chaos.o_mode <> !current then begin
        current := o.Chaos.o_mode;
        Exp_util.row ""
      end;
      Exp_util.row (Format.asprintf "%a" Chaos.pp_outcome o))
    outcomes;
  (* Windowed SLO compliance per cell, then the fleet view: each mode's
     per-cell latency sketches merged into one HDR histogram — the
     cross-cell aggregation path [--jobs] workers rely on. *)
  Exp_util.row "";
  Exp_util.row "SLO compliance (500 ms windows; burn > 1 = violation):";
  List.iter
    (fun o ->
      List.iter
        (fun c ->
          Exp_util.row
            (Printf.sprintf "  %-9s rate %.2f  %s" o.Chaos.o_mode
               o.Chaos.o_rate
               (Format.asprintf "%a" Nest_sim.Slo.pp_compliance c)))
        o.Chaos.o_slo)
    outcomes;
  let fleet_rows =
    List.filter_map
      (fun mode ->
        let name = Chaos.mode_to_string mode in
        let mine =
          List.filter (fun o -> String.equal o.Chaos.o_mode name) outcomes
        in
        if mine = [] then None
        else begin
          let merged = Nest_sim.Hdr.create ~name:("fleet." ^ name) () in
          List.iter
            (fun o ->
              Nest_sim.Hdr.merge_into ~into:merged o.Chaos.o_slo_lat)
            mine;
          if Nest_sim.Hdr.count merged = 0 then None
          else
            Some
              (Printf.sprintf
                 "  %-9s n=%-6d p50 %7.1f us  p90 %7.1f us  p99 %7.1f us"
                 name
                 (Nest_sim.Hdr.count merged)
                 (Nest_sim.Hdr.percentile merged 50.0)
                 (Nest_sim.Hdr.percentile merged 90.0)
                 (Nest_sim.Hdr.percentile merged 99.0))
        end)
      Chaos.all_modes
  in
  if fleet_rows <> [] then begin
    Exp_util.row "";
    Exp_util.row "fleet workload latency per mode (cells merged across rates):";
    List.iter Exp_util.row fleet_rows
  end;
  Exp_util.row "";
  Exp_util.kv "recovery"
    "kubelet hot-plug retry w/ exponential backoff; scheduler reschedules \
     the dead node's pods; Hostlo reattaches a fresh queue on the \
     surviving reflector (or claims a pre-plugged standby endpoint with \
     --standby N)";
  let violations =
    List.filter
      (fun o -> o.Chaos.o_leaked_leases <> 0 || o.Chaos.o_invariants <> [])
      outcomes
  in
  if violations <> [] then begin
    Exp_util.row "";
    List.iter
      (fun o ->
        Exp_util.row
          (Printf.sprintf "VIOLATION %s rate %.2f: %d leaked leases%s"
             o.Chaos.o_mode o.Chaos.o_rate o.Chaos.o_leaked_leases
             (String.concat ""
                (List.map (fun s -> "; " ^ s) o.Chaos.o_invariants))))
      violations
  end

(* Determinism guard (CI: chaos-smoke / chaos-workload-smoke): the same
   (mode, rate, seed, workload, standby) cells must digest identically
   on a repeat run and when fanned across domains.  Returns true when
   every digest matches AND no cell reports an exactly-once violation
   (leaked lease or broken Vmm invariant) — the chaos run is the only
   place those paths are exercised end-to-end, so the smoke doubles as
   the no-dangling-resource gate. *)
let check ?(seed = 42L) ?(jobs = 4) ?(workload = Chaos.Probe) ?(standby = 0)
    ~quick () =
  let rates = [ 0.0; 0.3 ] in
  validated ~rates ~standby;
  let cs = cells rates in
  let run_cell (mode, rate) =
    Chaos.run_cell ~quick ~workload ~standby ~mode ~rate ~seed ()
  in
  let digest_of c = Chaos.digest (run_cell c) in
  let sequential_o = List.map run_cell cs in
  let sequential = List.map Chaos.digest sequential_o in
  Exp_util.Par.set_jobs jobs;
  let parallel = Exp_util.Par.map digest_of cs in
  Exp_util.Par.set_jobs 1;
  let repeat = List.map digest_of cs in
  let identical =
    Exp_util.digests_agree
      ~title:
        (Printf.sprintf
           "chaos determinism (%d cells, workload=%s, --jobs 1 vs --jobs %d \
            vs repeat)"
           (List.length cs)
           (Chaos.workload_to_string workload)
           jobs)
      (List.mapi
         (fun i (mode, rate) ->
           ( Printf.sprintf "%-9s rate %.2f" (Chaos.mode_to_string mode) rate,
             [ ("jobs=1", List.nth sequential i);
               (Printf.sprintf "jobs=%d" jobs, List.nth parallel i);
               ("repeat", List.nth repeat i) ] ))
         cs)
  in
  let clean =
    List.for_all
      (fun o -> o.Chaos.o_leaked_leases = 0 && o.Chaos.o_invariants = [])
      sequential_o
  in
  if not clean then
    List.iter
      (fun o ->
        if o.Chaos.o_leaked_leases <> 0 || o.Chaos.o_invariants <> [] then
          Printf.printf "INVARIANT VIOLATION %s rate %.2f: %d leaked; %s\n"
            o.Chaos.o_mode o.Chaos.o_rate o.Chaos.o_leaked_leases
            (String.concat "; " o.Chaos.o_invariants))
      sequential_o;
  identical && clean
