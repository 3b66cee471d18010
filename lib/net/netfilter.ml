type hook = Prerouting | Input | Forward | Output | Postrouting

type ctx = { in_dev : string option; out_dev : string option }

type verdict = Accept | Drop | Mangle of Packet.t

type rule = {
  rule_name : string;
  matches : ctx -> Packet.t -> bool;
  action : ctx -> Packet.t -> verdict;
}

type t = {
  chains : (hook, rule list ref) Hashtbl.t;
  mutable hits : int;
}

let all_hooks = [ Prerouting; Input; Forward; Output; Postrouting ]

let create () =
  let chains = Hashtbl.create 8 in
  List.iter (fun h -> Hashtbl.add chains h (ref [])) all_hooks;
  { chains; hits = 0 }

let chain t hook = Hashtbl.find t.chains hook

let append t hook rule =
  let c = chain t hook in
  c := !c @ [ rule ]

let remove t hook name =
  let c = chain t hook in
  c := List.filter (fun r -> r.rule_name <> name) !c

let run t hook ctx pkt =
  let rec go pkt = function
    | [] -> Some pkt
    | r :: rest ->
      t.hits <- t.hits + 1;
      if r.matches ctx pkt then
        match r.action ctx pkt with
        | Accept -> go pkt rest
        | Drop -> None
        | Mangle pkt' -> go pkt' rest
      else go pkt rest
  in
  go pkt !(chain t hook)

let rule_count t hook = List.length !(chain t hook)
let rule_names t hook = List.map (fun r -> r.rule_name) !(chain t hook)
let hits t = t.hits
let no_ctx = { in_dev = None; out_dev = None }
