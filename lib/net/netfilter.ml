type hook = Prerouting | Input | Forward | Output | Postrouting

type ctx = { in_dev : string option; out_dev : string option }

type verdict = Accept | Drop | Mangle of Packet.t

type rule = {
  rule_name : string;
  matches : ctx -> Packet.t -> bool;
  action : ctx -> Packet.t -> verdict;
}

(* One chain per hook, indexed by [hook_index], plus the running sum of
   their lengths: the stack reads the total on every packet (the nat
   surcharge), so it is maintained by [append]/[remove] instead of
   recounted. *)
type t = {
  chains : rule list array;
  mutable total : int;
  mutable hits : int;
}

let hook_index = function
  | Prerouting -> 0
  | Input -> 1
  | Forward -> 2
  | Output -> 3
  | Postrouting -> 4

let create () = { chains = Array.make 5 []; total = 0; hits = 0 }

let append t hook rule =
  let i = hook_index hook in
  t.chains.(i) <- t.chains.(i) @ [ rule ];
  t.total <- t.total + 1

let remove t hook name =
  let i = hook_index hook in
  let before = t.chains.(i) in
  let after =
    List.filter (fun r -> not (String.equal r.rule_name name)) before
  in
  t.chains.(i) <- after;
  t.total <- t.total - (List.length before - List.length after)

(* Top-level so a traversal allocates no closure: it runs at every hook
   of every packet, mostly over empty chains. *)
let rec traverse t ctx pkt = function
  | [] -> Some pkt
  | r :: rest ->
    t.hits <- t.hits + 1;
    if r.matches ctx pkt then
      match r.action ctx pkt with
      | Accept -> traverse t ctx pkt rest
      | Drop -> None
      | Mangle pkt' -> traverse t ctx pkt' rest
    else traverse t ctx pkt rest

let run t hook ctx pkt = traverse t ctx pkt t.chains.(hook_index hook)

let rule_count t hook = List.length t.chains.(hook_index hook)
let total_rules t = t.total
let rule_names t hook =
  List.map (fun r -> r.rule_name) t.chains.(hook_index hook)
let hits t = t.hits
let no_ctx = { in_dev = None; out_dev = None }
