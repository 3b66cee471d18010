type t = { img_name : string; size_mb : int }

(* Every image the experiments pull has four layers. *)
let layers = 4

let make ~name ~size_mb = { img_name = name; size_mb }

let pull_delay_ns t ~cached ~rng =
  if cached then 0
  else begin
    (* ~40 MB/s registry + per-layer round trips, with 20 % jitter. *)
    let base_ms =
      (float_of_int t.size_mb /. 40.0 *. 1000.0)
      +. (float_of_int layers *. 120.0)
    in
    let jittered = base_ms *. Nest_sim.Prng.range_float rng 0.9 1.1 in
    int_of_float (jittered *. 1e6)
  end
