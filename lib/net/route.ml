type entry = {
  dst : Ipv4.cidr;
  gateway : Ipv4.t option;
  dev : Dev.t;
  src : Ipv4.t option;
}

type t = { mutable routes : entry list }

let create () = { routes = [] }

let add t ~dst ~dev ?gateway ?src () =
  t.routes <- { dst; gateway; dev; src } :: t.routes

let add_default t ~gateway ~dev ?src () =
  add t ~dst:(Ipv4.cidr_of_string "0.0.0.0/0") ~dev ~gateway ?src ()

(* [routes] is most-recent-first; keeping the incumbent on equal
   prefixes therefore makes the most recent entry win.  A top-level loop
   rather than [List.iter]: it runs for every packet and allocates no
   closure. *)
let rec longest ip best = function
  | [] -> best
  | e :: rest ->
    if Ipv4.in_subnet e.dst ip
       && (match best with
          | Some b -> e.dst.Ipv4.prefix > b.dst.Ipv4.prefix
          | None -> true)
    then longest ip (Some e) rest
    else longest ip best rest

let lookup t ip = longest ip None t.routes

let next_hop e ip = match e.gateway with Some gw -> gw | None -> ip

let remove_dev t dev =
  t.routes <- List.filter (fun e -> e.dev != dev) t.routes

let entries t = t.routes
