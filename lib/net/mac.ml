type t = int

let mask48 = (1 lsl 48) - 1
let broadcast = mask48
let is_broadcast t = t = broadcast
let of_int i = i land mask48
let to_int t = t

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let byte x =
      match int_of_string_opt ("0x" ^ x) with
      | Some v when v >= 0 && v < 256 -> v
      | _ -> invalid_arg ("Mac.of_string: " ^ s)
    in
    List.fold_left (fun acc x -> (acc lsl 8) lor byte x) 0 [ a; b; c; d; e; f ]
  | _ -> invalid_arg ("Mac.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xff) ((t lsr 32) land 0xff) ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)

let equal = Int.equal

(* [Ipv4.hash]'s mix, kept in this module so the table's hash
   inlines. *)
let[@inline] hash t =
  let h = t * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 32)) * 0x3C79AC492BA7B653 in
  (h lxor (h lsr 29)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Alloc = struct
  type alloc = { mutable next : int }

  (* The top 24 bits: the QEMU/KVM OUI. *)
  let oui = 0x525400

  let create () = { next = 1 }

  let fresh a =
    if a.next > 0xffffff then failwith "Mac.Alloc.fresh: pool exhausted";
    let v = (oui lsl 24) lor a.next in
    a.next <- a.next + 1;
    (* Force the locally-administered bit, clear the multicast bit. *)
    let hi = ((v lsr 40) land 0xff) lor 0x02 land lnot 0x01 in
    ((hi lsl 40) lor (v land 0xffffffffff)) land mask48
end
