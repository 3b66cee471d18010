type hook = Prerouting | Input | Forward | Output | Postrouting

type verdict = Accept | Drop | Mangle of Packet.t

type rule = {
  matches : in_dev:string -> out_dev:string -> Packet.t -> bool;
  action : Packet.t -> verdict;
}

(* One chain per hook, indexed by [hook_index], plus the running sum of
   their lengths: the stack reads the total on every packet (the nat
   surcharge), so it is maintained by [append] instead of recounted. *)
type t = {
  chains : rule list array;
  mutable total : int;
}

let hook_index = function
  | Prerouting -> 0
  | Input -> 1
  | Forward -> 2
  | Output -> 3
  | Postrouting -> 4

let create () = { chains = Array.make 5 []; total = 0 }

let append t hook rule =
  let i = hook_index hook in
  t.chains.(i) <- t.chains.(i) @ [ rule ];
  t.total <- t.total + 1

(* Top-level so a traversal allocates no closure: it runs at every hook
   of every packet.  [v] is the verdict so far: [Accept], or the last
   rule's [Mangle] carrying the packet the next rules see.  The device
   names are passed through as they are, so an armed hook allocates
   nothing beyond what its rules build. *)
let rec traverse ~in_dev ~out_dev pkt v = function
  | [] -> v
  | r :: rest ->
    if r.matches ~in_dev ~out_dev pkt then
      match r.action pkt with
      | Accept -> traverse ~in_dev ~out_dev pkt v rest
      | Drop -> Drop
      | Mangle pkt' as m -> traverse ~in_dev ~out_dev pkt' m rest
    else traverse ~in_dev ~out_dev pkt v rest

let run t hook ~in_dev ~out_dev pkt =
  traverse ~in_dev ~out_dev pkt Accept t.chains.(hook_index hook)

let passed pkt = function Mangle p -> p | Accept | Drop -> pkt

let rule_count t hook = List.length t.chains.(hook_index hook)
let total_rules t = t.total
