(* The splitmix64 state lives in 8 bytes, read and written through the
   unboxed 64-bit accessors: a mutable [int64] field would box a fresh
   state on every draw.  Inside this module the draws inline into each
   other, so [int] and [bits53] keep every intermediate [int64] in a
   register and allocate nothing; [float] boxes only the float it
   returns. *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64u t 0 seed;
  t

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  Passes BigCrush when used as a stream. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (get64u t 0) golden_gamma in
  set64u t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (next_int64 t)

let[@inline] bits53 t =
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

(* 53 high bits -> uniform in [0,1) *)
let[@inline] float t = Float.of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be > 0";
  (* Rejection-free modulo is fine here: bounds are tiny vs 2^62.  The
     [land max_int] guards against Int64.to_int keeping bit 62 set and
     producing a negative OCaml int. *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let range_float t lo hi = lo +. ((hi -. lo) *. float t)
