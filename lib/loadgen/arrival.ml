module Time = Nest_sim.Time

type t = {
  a_next : unit -> Time.ns;  (* an offset, or [ended] *)
  a_total : int option;
}

let ended = -1
let next t = t.a_next ()
let total t = t.a_total

(* Offsets are computed in float; [int_of_float] of a value at or past
   2^62 is not the value, and an offset that wrapped negative would land
   in the past forever.  Such an offset is beyond any horizon, so the
   stream ends there; offsets are monotone, so it stays ended. *)
let[@inline] offset x =
  let r = Float.round x in
  if r < Float.of_int max_int then int_of_float r else ended

let check_rate what rate_per_s =
  if rate_per_s <= 0.0 then
    invalid_arg (Printf.sprintf "Arrival.%s: rate must be > 0" what);
  if not (Float.is_finite rate_per_s) then
    invalid_arg (Printf.sprintf "Arrival.%s: rate must be finite" what)

let constant ~rate_per_s =
  check_rate "constant" rate_per_s;
  let period = 1e9 /. rate_per_s in
  let k = ref 0 in
  { a_next =
      (fun () ->
        incr k;
        offset (float_of_int !k *. period));
    a_total = None }

let poisson ~rng ~rate_per_s =
  check_rate "poisson" rate_per_s;
  let mean = 1e9 /. rate_per_s in
  (* Absolute offsets accumulate in float; rounding a monotone sum keeps
     the offsets monotone (ties are legal).  The sum sits in a flat
     float array: a captured [float ref] would box every new sum.  The
     gap is [Dist.exponential]'s draw written out over [Prng.bits53]:
     returned from [Dist], it would come back boxed. *)
  let acc = Float.Array.make 1 0.0 in
  { a_next =
      (fun () ->
        let u =
          1.0
          -. (Float.of_int (Nest_sim.Prng.bits53 rng)
             *. (1.0 /. 9007199254740992.0))
        in
        let sum = Float.Array.get acc 0 +. (-.mean *. log u) in
        Float.Array.set acc 0 sum;
        offset sum);
    a_total = None }

let of_trace ~users ~over =
  if over <= 0 then invalid_arg "Arrival.of_trace: over must be > 0";
  let n =
    List.fold_left (fun a u -> a + Nest_traces.Trace.user_pods u) 0 users
  in
  let i = ref 0 in
  { a_next =
      (fun () ->
        if !i >= n then ended
        else begin
          incr i;
          !i * over / n
        end);
    a_total = Some n }
