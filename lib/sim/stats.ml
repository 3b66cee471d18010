type t = {
  stat_name : string;
  mutable data : float array;
  mutable len : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable mn : float;
  mutable mx : float;
  mutable sorted_cache : float array option;
      (* Samples sorted ascending; invalidated by [add].  Shared by
         all percentile/CDF queries between additions, so a summary line
         costs one sort, not one per percentile. *)
}

let create ?(name = "") () =
  { stat_name = name; data = [||]; len = 0; sum = 0.0; sumsq = 0.0;
    mn = infinity; mx = neg_infinity; sorted_cache = None }

let name t = t.stat_name

let add t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let nd = Array.make (Stdlib.max 64 (cap * 2)) 0.0 in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  t.sorted_cache <- None;
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let count t = t.len
let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let variance t =
  if t.len < 2 then 0.0
  else begin
    let n = float_of_int t.len in
    let v = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.0) in
    Stdlib.max 0.0 v
  end

let stddev t = sqrt (variance t)
let min t = t.mn
let max t = t.mx

(* Only handed out internally: callers must not mutate the result.
   [Float.compare] is a total order (NaN sorts below every number), so a
   stray NaN sample cannot corrupt the sort the way an inconsistent
   comparison would. *)
let sorted t =
  match t.sorted_cache with
  | Some a -> a
  | None ->
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    t.sorted_cache <- Some a;
    a

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  let a = sorted t in
  let p = Stdlib.min 100.0 (Stdlib.max 0.0 p) in
  let rank = p /. 100.0 *. float_of_int (t.len - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then a.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
  end

let samples t = Array.sub t.data 0 t.len

let merge a b =
  let m = create ~name:(name a) () in
  Array.iter (add m) (samples a);
  Array.iter (add m) (samples b);
  m

let pp_summary fmt t =
  if t.len = 0 then Format.fprintf fmt "%s: (no samples)" t.stat_name
  else
    Format.fprintf fmt "%s: n=%d mean=%.3f sd=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f"
      t.stat_name t.len (mean t) (stddev t) (percentile t 50.0)
      (percentile t 99.0) t.mn t.mx

module Histogram = struct
  type h = { lo : float; hi : float; width : float; bins : int array }

  let create ~lo ~hi ~bins =
    if bins <= 0 || hi <= lo then invalid_arg "Histogram.create";
    { lo; hi; width = (hi -. lo) /. float_of_int bins; bins = Array.make bins 0 }

  let add h x =
    let i = int_of_float ((x -. h.lo) /. h.width) in
    let i = Stdlib.max 0 (Stdlib.min (Array.length h.bins - 1) i) in
    h.bins.(i) <- h.bins.(i) + 1

  let counts h = Array.copy h.bins

  let bin_bounds h i =
    (h.lo +. (float_of_int i *. h.width), h.lo +. (float_of_int (i + 1) *. h.width))

end
