type entry = {
  dst : Ipv4.cidr;
  gateway : Ipv4.t option;
  dev : Dev.t;
  src : Ipv4.t option;
}

type t = { mutable routes : entry list }

let create () = { routes = [] }

let add t ~dst ~dev ?src () =
  t.routes <- { dst; gateway = None; dev; src } :: t.routes

let add_default t ~gateway ~dev () =
  t.routes <-
    { dst = Ipv4.cidr_of_string "0.0.0.0/0"; gateway = Some gateway; dev;
      src = None }
    :: t.routes

(* [routes] is most-recent-first; keeping the incumbent on equal
   prefixes therefore makes the most recent entry win.  Top-level loops
   rather than [List.iter]: they run for every packet, and allocate
   neither a closure nor an option per candidate. *)
let rec longest ip best = function
  | [] -> best
  | e :: rest ->
    if e.dst.Ipv4.prefix > best.dst.Ipv4.prefix && Ipv4.in_subnet e.dst ip
    then longest ip e rest
    else longest ip best rest

let rec first_match ip = function
  | [] -> raise Not_found
  | e :: rest ->
    if Ipv4.in_subnet e.dst ip then longest ip e rest else first_match ip rest

let lookup t ip = first_match ip t.routes

let next_hop e ip = match e.gateway with Some gw -> gw | None -> ip

let remove_dev t dev =
  t.routes <- List.filter (fun e -> e.dev != dev) t.routes
