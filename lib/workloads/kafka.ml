open Nest_net
open Nestfusion
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type Payload.app_msg +=
  | Kf_batch of { batch_id : int; t0s : Time.ns list }
  | Kf_ack of { batch_id : int; t0s : Time.ns list }

type result = {
  latency : Nest_sim.Stats.t;
  msgs_per_sec : float;
  batches : int;
  records : int;
}

(* Broker request handling: log append (page-cache write) per batch plus
   a small per-record cost. *)
let broker_batch_mean_ns = 160_000.0
let broker_batch_cv = 0.06
let broker_record_ns = 180

(* Producer-side serialization/compression per record. *)
let producer_record_ns = 250
let record_overhead_bytes = 70  (* Kafka record framing *)

let containerized_factor = 1.35

(* Table 1: 100 B records in batches of up to 8192 B, which a partial
   batch leaves after a 5 ms linger; 2 broker request handlers. *)
let record_bytes = 100
let batch_bytes = 8_192
let linger = Time.ms 5
let broker_workers = 2

let run tb (ep : App.endpoints) ?(containerized = false)
    ?(rate_per_sec = 120_000) ?(warmup = Time.ms 100) ?(duration = Time.sec 1)
    () =
  let engine = tb.Testbed.engine in
  let rng = Nest_sim.Prng.split (Engine.rng engine) in
  let latency = Nest_sim.Stats.create ~name:"kafka_us" () in
  let batches = ref 0 and records = ref 0 in
  let measuring = ref false in
  let stop_at = ref max_int in
  let pool =
    App.Pool.create ep.App.sv_new_exec ~n:broker_workers ~name:"kafka-broker"
  in
  (* Broker. *)
  Stack.Tcp.listen ep.App.sv_ns ~port:ep.App.sv_port ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
          List.iter
            (fun msg ->
              match msg with
              | Kf_batch { batch_id; t0s } ->
                let mean =
                  if containerized then
                    broker_batch_mean_ns *. containerized_factor
                  else broker_batch_mean_ns
                in
                let cost =
                  int_of_float
                    (Nest_sim.Dist.lognormal_mean_cv rng ~mean
                       ~cv:broker_batch_cv)
                  + (broker_record_ns * List.length t0s)
                in
                App.Pool.submit pool ~cost (fun () ->
                    if not (Stack.Tcp.is_closed conn) then
                      App.send_all conn ~size:64
                        ~msg:(Kf_ack { batch_id; t0s })
                        ())
              | _ -> ())
            msgs));
  (* Producer. *)
  let producer_conn = ref None in
  let batch : Time.ns list ref = ref [] in
  let batch_wire_bytes = ref 0 in
  let next_batch_id = ref 0 in
  let batch_opened_at = ref 0 in
  let flush () =
    match (!producer_conn, !batch) with
    | Some conn, (_ :: _ as t0s) when not (Stack.Tcp.is_closed conn) ->
      incr next_batch_id;
      let size = !batch_wire_bytes + 96 (* produce-request header *) in
      batch := [];
      batch_wire_bytes := 0;
      Nest_sim.Exec.submit ep.App.cl_exec
        ~cost:(producer_record_ns * List.length t0s)
        (fun () ->
          if not (Stack.Tcp.is_closed conn) then
            App.send_all conn ~size
              ~msg:(Kf_batch { batch_id = !next_batch_id; t0s = List.rev t0s })
              ())
    | _ -> ()
  in
  let rec linger_check opened () =
    (* Flush a partially filled batch when the linger timer expires. *)
    if !batch <> [] && !batch_opened_at = opened then flush ()
    else if !batch <> [] then
      Engine.schedule engine ~delay:linger (linger_check !batch_opened_at)
  in
  let offer_record () =
    if !batch = [] then begin
      batch_opened_at := Engine.now engine;
      Engine.schedule engine ~delay:linger (linger_check !batch_opened_at)
    end;
    batch := Engine.now engine :: !batch;
    batch_wire_bytes := !batch_wire_bytes + record_bytes + record_overhead_bytes;
    if !batch_wire_bytes >= batch_bytes then flush ()
  in
  let interval_ns = 1_000_000_000 / rate_per_sec in
  let rec tick () =
    if Engine.now engine < !stop_at then begin
      offer_record ();
      Engine.schedule engine ~delay:interval_ns tick
    end
  in
  ignore
    (Stack.Tcp.connect ep.App.cl_ns ~dst:ep.App.sv_addr ~port:ep.App.sv_port
       ~on_established:(fun conn ->
         producer_conn := Some conn;
         Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
             List.iter
               (fun msg ->
                 match msg with
                 | Kf_ack { t0s; _ } ->
                   if !measuring then begin
                     incr batches;
                     List.iter
                       (fun t0 ->
                         incr records;
                         Nest_sim.Stats.add latency
                           (Time.to_us_f (Engine.now engine - t0)))
                       t0s
                   end
                 | _ -> ())
               msgs);
         tick ())
       ());
  let t0 = Engine.now engine in
  stop_at := t0 + warmup + duration;
  Engine.run ~until:(t0 + warmup) engine;
  measuring := true;
  Engine.run ~until:!stop_at engine;
  Engine.run ~until:(!stop_at + Time.ms 50) engine;
  measuring := false;
  Stack.Tcp.unlisten ep.App.sv_ns ~port:ep.App.sv_port;
  { latency;
    msgs_per_sec = float_of_int !records /. Time.to_sec_f duration;
    batches = !batches;
    records = !records }
