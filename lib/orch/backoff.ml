(* Deterministic exponential backoff.

   Kubernetes retries failed pod-setup steps (image pulls, CNI ADD,
   device attach) with an exponentially growing delay.  This policy is
   deliberately jitter-free: fault-injection runs must produce the same
   retry timeline for the same seed, and the simulator has no thundering
   herd to break up. *)

type policy = {
  base_ns : Nest_sim.Time.ns;
  multiplier : float;
  max_delay_ns : Nest_sim.Time.ns;
  max_attempts : int;
}

let default =
  {
    (* 100 ms, x2 up to 3.2 s, 6 tries — kubelet-flavoured but scaled to
       hot-plug RTTs (tens of ms) rather than image pulls. *)
    base_ns = 100_000_000;
    multiplier = 2.0;
    max_delay_ns = 3_200_000_000;
    max_attempts = 6;
  }

(* Delay scheduled after the [attempt]-th failure (1-based). *)
let delay_ns p ~attempt =
  let a = max 1 attempt in
  let d =
    float_of_int p.base_ns *. (p.multiplier ** float_of_int (a - 1))
  in
  min p.max_delay_ns (int_of_float d)

(* The whole retry schedule as data: after the [a]-th failure the caller
   waits the paired delay (no pair for the final attempt — exhaustion is
   reported, not slept on).  Chaos reporting uses this to turn "retries
   happened" into retry-storm intensity: how much wall time the policy
   sinks into waiting at a given fault rate. *)
let schedule p =
  List.init (max 0 (p.max_attempts - 1)) (fun i ->
      let attempt = i + 1 in
      (attempt, delay_ns p ~attempt))

(* Run [op] until it succeeds or the policy is exhausted.  [op] receives
   the 1-based attempt number and must call its continuation exactly
   once; [on_retry] (diagnostics, metrics) fires before each re-issue. *)
let retry engine p ?(on_retry = fun ~attempt:_ ~delay_ns:_ -> ()) op ~k =
  let rec go attempt =
    op ~attempt ~k:(fun r ->
        match r with
        | Ok _ -> k r
        | Error _ when attempt >= p.max_attempts -> k r
        | Error _ ->
          let delay = delay_ns p ~attempt in
          on_retry ~attempt ~delay_ns:delay;
          Nest_sim.Engine.schedule engine ~delay (fun () -> go (attempt + 1)))
  in
  go 1
