open Nest_net
open Nestfusion
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type Payload.app_msg +=
  | Ng_request of { id : int; t_intended : Time.ns }
  | Ng_response of { id : int; t_intended : Time.ns }

type result = {
  latency : Nest_sim.Stats.t;
  achieved_rate : float;
  requests : int;
}

let request_bytes = 120  (* GET + headers *)
let response_overhead_bytes = 240  (* status line + headers *)

(* Native NGINX serves a cached 1 kB file in ~180 us with moderate
   variance; the containerized instance (overlayfs, cgroup accounting,
   seccomp) is slower and heavy-tailed — the effect §5.2.2 observes. *)
let native_service_mean_ns = 180_000.0
let native_service_cv = 0.45
let containerized_service_mean_ns = 330_000.0
let containerized_service_cv = 1.2

let client_cost_ns = 500

(* Table 1: wrk2 offers 10 k req/s over 100 connections for a 1 kB file,
   which 4 NGINX workers serve. *)
let connections = 100
let rate_per_sec = 10_000
let file_bytes = 1_024
let server_workers = 4

let run tb (ep : App.endpoints) ~containerized ?(warmup = Time.ms 100)
    ?(duration = Time.sec 1) () =
  let engine = tb.Testbed.engine in
  let rng = Nest_sim.Prng.split (Engine.rng engine) in
  let latency = Nest_sim.Stats.create ~name:"nginx_us" () in
  let requests = ref 0 in
  let measuring = ref false in
  let stop_at = ref max_int in
  let service_mean, service_cv =
    if containerized then (containerized_service_mean_ns, containerized_service_cv)
    else (native_service_mean_ns, native_service_cv)
  in
  let pool =
    App.Pool.create ep.App.sv_new_exec ~n:server_workers ~name:"nginx"
  in
  Stack.Tcp.listen ep.App.sv_ns ~port:ep.App.sv_port ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
          List.iter
            (fun msg ->
              match msg with
              | Ng_request { id; t_intended } ->
                let cost =
                  int_of_float
                    (Nest_sim.Dist.lognormal_mean_cv rng ~mean:service_mean
                       ~cv:service_cv)
                in
                App.Pool.submit pool ~cost (fun () ->
                    if not (Stack.Tcp.is_closed conn) then
                      App.send_all conn
                        ~size:(file_bytes + response_overhead_bytes)
                        ~msg:(Ng_response { id; t_intended })
                        ())
              | _ -> ())
            msgs));
  (* wrk2: fixed-rate open loop over a connection pool.  Each connection
     can carry overlapping requests (HTTP pipelining is off in wrk2, but
     with 100 connections and round-robin dispatch a connection is rarely
     reused while busy at 10 k/s). *)
  let conns = Array.make connections None in
  let established = ref 0 in
  Array.iteri
    (fun i _ ->
      ignore
        (Stack.Tcp.connect ep.App.cl_ns ~dst:ep.App.sv_addr
           ~port:ep.App.sv_port
           ~on_established:(fun conn ->
             conns.(i) <- Some conn;
             incr established;
             Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
                 List.iter
                   (fun msg ->
                     match msg with
                     | Ng_response { t_intended; _ } ->
                       if !measuring then begin
                         Nest_sim.Stats.add latency
                           (Time.to_us_f (Engine.now engine - t_intended));
                         incr requests
                       end
                     | _ -> ())
                   msgs))
           ()))
    conns;
  let interval_ns = 1_000_000_000 / rate_per_sec in
  let next_conn = ref 0 in
  let next_id = ref 0 in
  let rec tick () =
    if Engine.now engine < !stop_at then begin
      (match conns.(!next_conn) with
      | Some conn when not (Stack.Tcp.is_closed conn) ->
        incr next_id;
        let id = !next_id in
        let t_intended = Engine.now engine in
        Nest_sim.Exec.submit ep.App.cl_exec ~cost:client_cost_ns (fun () ->
            if not (Stack.Tcp.is_closed conn) then
              App.send_all conn ~size:request_bytes
                ~msg:(Ng_request { id; t_intended })
                ())
      | Some _ | None -> ());
      next_conn := (!next_conn + 1) mod connections;
      Engine.schedule engine ~delay:interval_ns tick
    end
  in
  (* Let connections establish before the generator starts. *)
  Engine.schedule engine ~delay:(Time.ms 50) tick;
  let t0 = Engine.now engine in
  stop_at := t0 + Time.ms 50 + warmup + duration;
  Engine.run ~until:(t0 + Time.ms 50 + warmup) engine;
  measuring := true;
  Engine.run ~until:!stop_at engine;
  Engine.run ~until:(!stop_at + Time.ms 50) engine;
  measuring := false;
  Stack.Tcp.unlisten ep.App.sv_ns ~port:ep.App.sv_port;
  { latency;
    achieved_rate = float_of_int !requests /. Time.to_sec_f duration;
    requests = !requests }
