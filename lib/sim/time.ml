type ns = int

let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000

let to_sec_f t = float_of_int t /. 1e9
let to_us_f t = float_of_int t /. 1e3
let to_ms_f t = float_of_int t /. 1e6

let pp fmt t =
  let f = float_of_int t in
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (f /. 1e3)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else Format.fprintf fmt "%.3fs" (f /. 1e9)
