(* Uniforms come from {!Prng.bits53}, scaled here, and every draw is
   [@inline]: inside this module the float arithmetic between draws
   stays unboxed, so a draw boxes only the float it returns.  The
   scaling is {!Prng.float}'s, so the streams are unchanged. *)

let[@inline] uniform rng =
  Float.of_int (Prng.bits53 rng) *. (1.0 /. 9007199254740992.0)

let[@inline] exponential rng ~mean =
  let u = 1.0 -. uniform rng in
  -.mean *. log u

let[@inline] normal rng ~mu ~sigma =
  let u1 = 1.0 -. uniform rng in
  let u2 = uniform rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let[@inline] lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let[@inline] lognormal_mean_cv rng ~mean ~cv =
  (* mean = exp(mu + sigma^2/2); cv^2 = exp(sigma^2) - 1 *)
  let sigma2 = log (1.0 +. (cv *. cv)) in
  let mu = log mean -. (sigma2 /. 2.0) in
  lognormal rng ~mu ~sigma:(sqrt sigma2)

let[@inline] bounded_pareto rng ~shape ~lo ~hi =
  (* Inverse CDF of the truncated Pareto. *)
  let u = uniform rng in
  let la = lo ** shape and ha = hi ** shape in
  let x = -.((u *. ha) -. u *. la -. ha) /. (ha *. la) in
  x ** (-1.0 /. shape)

(* The truncation stays in this module, so the variate is never boxed. *)
let bounded_pareto_int rng ~shape ~lo ~hi =
  int_of_float
    (bounded_pareto rng ~shape ~lo:(float_of_int lo) ~hi:(float_of_int hi))

let poisson rng ~mean =
  if mean <= 0.0 then 0
  else if mean > 60.0 then
    let v = normal rng ~mu:mean ~sigma:(sqrt mean) in
    Int.max 0 (int_of_float (Float.round v))
  else begin
    let l = exp (-.mean) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      incr k;
      p := !p *. uniform rng;
      if !p <= l then continue := false
    done;
    !k - 1
  end
