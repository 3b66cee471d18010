open Nest_net
open Nestfusion

type endpoints = {
  cl_ns : Stack.ns;
  cl_exec : Nest_sim.Exec.t;
  sv_ns : Stack.ns;
  sv_exec : Nest_sim.Exec.t;
  sv_addr : Ipv4.t;
  sv_port : int;
  cl_new_exec : string -> Nest_sim.Exec.t;
  sv_new_exec : string -> Nest_sim.Exec.t;
}

let of_single tb (site : Deploy.server_site) =
  { cl_ns = tb.Testbed.client_ns;
    cl_exec = Testbed.client_app_exec tb ~name:(site.Deploy.site_entity ^ "-client");
    sv_ns = site.Deploy.site_ns;
    sv_exec = site.Deploy.site_exec;
    sv_addr = site.Deploy.site_addr;
    sv_port = site.Deploy.site_port;
    cl_new_exec = (fun n -> Testbed.client_app_exec tb ~name:n);
    sv_new_exec = site.Deploy.site_new_exec }

let of_pair (p : Deploy.pair_site) =
  { cl_ns = p.Deploy.a_ns; cl_exec = p.Deploy.a_exec; sv_ns = p.Deploy.b_ns;
    sv_exec = p.Deploy.b_exec; sv_addr = p.Deploy.b_addr;
    sv_port = p.Deploy.b_port; cl_new_exec = p.Deploy.a_new_exec;
    sv_new_exec = p.Deploy.b_new_exec }

let send_all conn ~size ?msg () =
  if not (Stack.Tcp.send conn ~size ?msg ()) then
    failwith "App.send_all: unexpected backpressure on request/response flow"

module Pool = struct
  type t = { workers : Nest_sim.Exec.t array }

  let create mk ~n ~name =
    { workers =
        Array.init n (fun i -> mk (Printf.sprintf "%s-w%d" name i)) }

  let submit t ~cost k =
    let best = ref t.workers.(0) in
    Array.iter
      (fun w ->
        if Nest_sim.Exec.busy_until w < Nest_sim.Exec.busy_until !best then
          best := w)
      t.workers;
    Nest_sim.Exec.submit !best ~cost k

end

module Cpu_snap = struct
  type t = (string * (Nest_sim.Cpu_account.category * int) list) list

  let take acct = Nest_sim.Cpu_account.snapshot acct

  let get snap ~entity cat =
    match List.assoc_opt entity snap with
    | None -> 0
    | Some cats -> Option.value (List.assoc_opt cat cats) ~default:0

  let diff_ns ~before ~after ~entity cat =
    get after ~entity cat - get before ~entity cat

  let diff_cores ~before ~after ~entity cat ~window =
    if window <= 0 then 0.0
    else float_of_int (diff_ns ~before ~after ~entity cat) /. float_of_int window

end
