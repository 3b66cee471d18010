type t = int

let mask32 = 0xffffffff
let of_int i = i land mask32
let to_int t = t

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let byte x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v < 256 -> v
      | _ -> invalid_arg ("Ipv4.of_string: " ^ s)
    in
    List.fold_left (fun acc x -> (acc lsl 8) lor byte x) 0 [ a; b; c; d ]
  | _ -> invalid_arg ("Ipv4.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let equal = Int.equal
let compare = Int.compare

(* Two multiply-xorshift rounds, so every input bit reaches the low
   bits that pick a bucket: the packet path hashes addresses per packet,
   and this stays inline arithmetic where [Hashtbl.hash] is a C call. *)
let[@inline] hash t =
  let h = t * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 32)) * 0x3C79AC492BA7B653 in
  (h lxor (h lsr 29)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
let pp fmt t = Format.pp_print_string fmt (to_string t)
let localhost = of_string "127.0.0.1"
let any = 0

type cidr = { base : t; prefix : int }

let prefix_mask prefix =
  if prefix = 0 then 0 else mask32 land (mask32 lsl (32 - prefix))

let cidr_of_string s =
  match String.split_on_char '/' s with
  | [ addr; p ] ->
    let prefix =
      match int_of_string_opt p with
      | Some v when v >= 0 && v <= 32 -> v
      | _ -> invalid_arg ("Ipv4.cidr_of_string: " ^ s)
    in
    { base = of_string addr land prefix_mask prefix; prefix }
  | _ -> invalid_arg ("Ipv4.cidr_of_string: " ^ s)

let cidr_to_string c = Printf.sprintf "%s/%d" (to_string c.base) c.prefix
let in_subnet c ip = ip land prefix_mask c.prefix = c.base
let network c = c.base
let broadcast_addr c = c.base lor (mask32 land lnot (prefix_mask c.prefix))

let host_count c =
  let size = 1 lsl (32 - c.prefix) in
  if c.prefix >= 31 then size else size - 2

let host c i =
  let size = 1 lsl (32 - c.prefix) in
  if i < 0 || i >= size then invalid_arg "Ipv4.host: out of range";
  of_int (c.base + i)
