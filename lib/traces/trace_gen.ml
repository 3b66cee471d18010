module Prng = Nest_sim.Prng
module Dist = Nest_sim.Dist

let default_users = 492

(* Per-user pod counts: most users run a handful of pods, a few run
   thousands (the Google traces' user activity is roughly Zipfian). *)
let sample_pod_count rng =
  int_of_float (Dist.bounded_pareto rng ~shape:0.78 ~lo:1.0 ~hi:12_000.0)

(* Containers per pod: Google jobs are mostly 1 task, with a tail of
   wide jobs. *)
let sample_container_count rng =
  let v = Dist.bounded_pareto rng ~shape:1.4 ~lo:1.0 ~hi:24.0 in
  max 1 (int_of_float v)

(* Per-container demands, in relative units of the largest machine.
   The Google trace request distribution is heavy-tailed with most
   requests below 0.05 of a machine; memory requests correlate with CPU
   but with substantial dispersion. *)
let sample_cpu rng = Dist.bounded_pareto rng ~shape:1.15 ~lo:0.006 ~hi:0.30

let sample_mem rng cpu =
  let ratio = Dist.lognormal_mean_cv rng ~mean:1.0 ~cv:0.6 in
  Float.min 0.35 (Float.max 0.002 (cpu *. ratio))

(* A pod must fit the largest machine whole (the baseline scheduler has
   no other option, and real traces fit their machines by construction):
   trim trailing containers until the pod totals stay below capacity. *)
let pod_budget = 0.95

let clamp_pod containers =
  let rec keep acc cpu mem = function
    | [] -> List.rev acc
    | c :: rest ->
      let cpu' = cpu +. c.Trace.c_cpu and mem' = mem +. c.Trace.c_mem in
      if (cpu' > pod_budget || mem' > pod_budget) && acc <> [] then List.rev acc
      else keep (c :: acc) cpu' mem' rest
  in
  keep [] 0.0 0.0 containers

(* One user: its pod count, then each pod's containers, all drawn from
   [rng] in order.  [users] draws them one after another from one
   stream, so the first users of a seed are the same whatever the
   count. *)
let user rng u =
  let pods = sample_pod_count rng in
  { Trace.u_id = u;
    pods =
      List.init pods (fun p ->
          let n = sample_container_count rng in
          { Trace.p_id = p;
            p_containers =
              clamp_pod
                (List.init n (fun _ ->
                     let cpu = sample_cpu rng in
                     { Trace.c_cpu = cpu; c_mem = sample_mem rng cpu })) }) }

(* 100 000 users print about 150 MB of CSV. *)
let max_users = 100_000

(* The generator is made at the start of each traversal, so every
   traversal draws the same users. *)
let users ~seed () =
  let rng = Prng.create seed in
  Seq.map (user rng) (Seq.ints 0) ()

let generate ~seed ~users:n =
  if n < 0 || n > max_users then
    invalid_arg
      (Printf.sprintf "Trace_gen.generate: users must be in [0, %d] (got %d)"
         max_users n);
  List.of_seq (Seq.take n (users ~seed))

(* Draws users in order, copying their pods out, and stops at the n-th
   pod: no user past it is drawn. *)
let first_pods ~seed ~max_users n =
  let rng = Prng.create seed in
  let out = Array.make n { Trace.p_id = 0; p_containers = [] } in
  let rec copy k = function
    | p :: rest when k < n ->
      out.(k) <- p;
      copy (k + 1) rest
    | _ -> k
  in
  let rec draw u k =
    if k < n && u < max_users then draw (u + 1) (copy k (user rng u).Trace.pods)
    else k
  in
  let k = draw 0 0 in
  if k = n then out else Array.sub out 0 k
