(* Bounded-relative-error streaming histogram (HDR/DDSketch-style).

   Values are binned into logarithmic buckets: bucket [i] covers
   (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so the
   midpoint estimate 2*gamma^i/(gamma+1) is within [alpha] relative
   error of any sample in the bucket.  Alongside the buckets we keep the
   exact count/sum/min/max, so totals and extrema read back exactly —
   only interior percentiles carry the bucket error.

   Buckets are a dense int array over the occupied index range, grown on
   demand; merging two sketches with the same [error] is a bucket-wise
   sum, which is what makes percentiles composable across shards and
   [--jobs] cells. *)

type t = {
  alpha : float;
  gamma : float;
  ln_gamma : float;
  idx_min : int;  (* clamp: indices for values below ~1e-12 collapse *)
  idx_max : int;  (* clamp: indices for values above ~1e18 collapse *)
  mutable zero : int;  (* samples <= 0 (and NaN), kept out of the log bins *)
  mutable buckets : int array;
  mutable offset : int;  (* absolute index of buckets.(0); meaningful when
                            [Array.length buckets > 0] *)
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let create ?(error = 0.01) () =
  if not (error > 0.0 && error < 1.0) then
    invalid_arg "Hdr.create: error must be in (0, 1)";
  let gamma = (1.0 +. error) /. (1.0 -. error) in
  let ln_gamma = log gamma in
  let idx_of v = int_of_float (Float.ceil (log v /. ln_gamma)) in
  {
    alpha = error;
    gamma;
    ln_gamma;
    idx_min = idx_of 1e-12;
    idx_max = idx_of 1e18;
    zero = 0;
    buckets = [||];
    offset = 0;
    n = 0;
    sum = 0.0;
    mn = infinity;
    mx = neg_infinity;
  }

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let min t = t.mn
let max t = t.mx

let clear t =
  t.zero <- 0;
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.n <- 0;
  t.sum <- 0.0;
  t.mn <- infinity;
  t.mx <- neg_infinity

(* Absolute log-bucket index of a strictly positive value, clamped to the
   supported range so one wild sample cannot balloon the bucket array. *)
let[@inline] idx_of t v =
  let i = int_of_float (Float.ceil (log v /. t.ln_gamma)) in
  if i < t.idx_min then t.idx_min else if i > t.idx_max then t.idx_max else i

(* Grow [t.buckets] so absolute index [i] is addressable.  Rare: only on
   first sight of a value outside the occupied range. *)
let ensure t i =
  let len = Array.length t.buckets in
  if len = 0 then begin
    t.buckets <- Array.make 64 0;
    t.offset <- i - 32
  end
  else if i < t.offset || i >= t.offset + len then begin
    let lo = Stdlib.min t.offset (i - 16) in
    let hi = Stdlib.max (t.offset + len) (i + 16) in
    let nb = Array.make (hi - lo) 0 in
    Array.blit t.buckets 0 nb (t.offset - lo) len;
    t.buckets <- nb;
    t.offset <- lo
  end

let add t v =
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.mn then t.mn <- v;
  if v > t.mx then t.mx <- v;
  if not (v > 0.0) then t.zero <- t.zero + 1
  else begin
    let i = idx_of t v in
    let len = Array.length t.buckets in
    if len = 0 || i < t.offset || i >= t.offset + len then ensure t i;
    let j = i - t.offset in
    Array.unsafe_set t.buckets j (Array.unsafe_get t.buckets j + 1)
  end

(* Midpoint estimate for bucket (gamma^(i-1), gamma^i]: within [alpha]
   relative error of every sample the bucket holds. *)
let bucket_value t i = 2.0 *. exp (float_of_int i *. t.ln_gamma) /. (t.gamma +. 1.0)

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let p = Stdlib.min 100.0 (Stdlib.max 0.0 p) in
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
    in
    let est =
      if rank <= t.zero then Stdlib.min 0.0 t.mn
      else begin
        let cum = ref t.zero in
        let len = Array.length t.buckets in
        let res = ref t.mx in
        (try
           for j = 0 to len - 1 do
             cum := !cum + t.buckets.(j);
             if !cum >= rank then begin
               res := bucket_value t (t.offset + j);
               raise Exit
             end
           done
         with Exit -> ());
        !res
      end
    in
    (* Exact extrema are tracked, so never report outside [mn, mx]. *)
    Stdlib.min t.mx (Stdlib.max t.mn est)
  end

let merge_into ~into src =
  if into.alpha <> src.alpha then
    invalid_arg "Hdr.merge_into: mismatched error bounds";
  into.zero <- into.zero + src.zero;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.mn < into.mn then into.mn <- src.mn;
  if src.mx > into.mx then into.mx <- src.mx;
  let len = Array.length src.buckets in
  if len > 0 then begin
    ensure into src.offset;
    ensure into (src.offset + len - 1);
    for j = 0 to len - 1 do
      let c = src.buckets.(j) in
      if c > 0 then begin
        let k = src.offset + j - into.offset in
        into.buckets.(k) <- into.buckets.(k) + c
      end
    done
  end
