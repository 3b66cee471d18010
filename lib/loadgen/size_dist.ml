type t =
  | Fixed of int
  | Uniform of { lo : int; hi : int }
  | Pareto of { shape : float; lo : int; hi : int }

let draw t rng =
  match t with
  | Fixed n ->
    if n < 1 then invalid_arg "Size_dist.draw: Fixed size must be >= 1";
    n
  | Uniform { lo; hi } ->
    if lo < 1 || hi < lo then
      invalid_arg "Size_dist.draw: Uniform needs 1 <= lo <= hi";
    lo + Nest_sim.Prng.int rng (hi - lo + 1)
  | Pareto { shape; lo; hi } ->
    if lo < 1 || hi < lo then
      invalid_arg "Size_dist.draw: Pareto needs 1 <= lo <= hi";
    if shape <= 0.0 then invalid_arg "Size_dist.draw: Pareto shape must be > 0";
    let v = Nest_sim.Dist.bounded_pareto_int rng ~shape ~lo ~hi in
    Int.max lo (Int.min hi v)
