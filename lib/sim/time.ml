type ns = int

let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000

let to_sec_f t = float_of_int t /. 1e9
let to_us_f t = float_of_int t /. 1e3
let to_ms_f t = float_of_int t /. 1e6

(* Appends the decimal digits of [-m], for [m <= 0]: counted on the
   negative side, [min_int] needs no special case. *)
let rec add_neg_digits b m =
  if m <= -10 then add_neg_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let buffer_add_ns b t =
  if t < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b t
  end
  else add_neg_digits b (-t)

(* [t / 1000] then three digits of [t mod 1000] and "000": what "%.6f"
   prints for [to_us_f t], whose error (at most half an ulp, 2^-21 below
   2^33 us) never reaches the 5e-7 that would round a sixth decimal. *)
let buffer_add_us b t =
  let m = if t < 0 then (Buffer.add_char b '-'; t) else -t in
  add_neg_digits b (m / 1000);
  Buffer.add_char b '.';
  let f = -(m mod 1000) in
  Buffer.add_char b (Char.unsafe_chr (48 + (f / 100)));
  Buffer.add_char b (Char.unsafe_chr (48 + (f / 10 mod 10)));
  Buffer.add_char b (Char.unsafe_chr (48 + (f mod 10)));
  Buffer.add_string b "000"

let pp fmt t =
  let f = float_of_int t in
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
