open Nest_net
open Nestfusion
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type op = Get | Set

type Payload.app_msg +=
  | Mc_request of { op : op; id : int; t0 : Time.ns }
  | Mc_response of { id : int; t0 : Time.ns }

type result = {
  responses_per_sec : float;
  latency : Nest_sim.Stats.t;
  skew : Nest_sim.Stats.t;
  gets : int;
  sets : int;
}

(* Wire sizes: textual protocol framing plus key/value bytes. *)
let get_request_bytes = 40
let set_request_bytes value = 48 + value
let get_response_bytes value = 38 + value
let set_response_bytes = 8

(* Server-side service costs (request parse, hash lookup, slab
   read/write, response build). *)
let get_service_mean_ns = 7_000.0
let set_service_mean_ns = 9_000.0
let service_cv = 0.25

(* memtier's own per-request client work (request build, response parse,
   histogram update). *)
let client_cost_ns = 11_000

(* Table 1: memtier runs 4 threads of 50 connections each against 100 B
   values, and the server 4 worker threads. *)
let memtier_threads = 4
let conns_per_thread = 50
let value_size = 100
let server_threads = 4

(* Server half: service each request on a worker thread, then respond.
   Factored out so chaos cells can re-deploy it into a fresh pod
   namespace after a crash; [run] below uses it unchanged. *)
let serve ~pool ~rng ns ~port =
  Stack.Tcp.listen ns ~port ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
          List.iter
            (fun msg ->
              match msg with
              | Mc_request { op; id; t0 } ->
                let mean =
                  match op with
                  | Get -> get_service_mean_ns
                  | Set -> set_service_mean_ns
                in
                let cost =
                  int_of_float
                    (Nest_sim.Dist.lognormal_mean_cv rng ~mean ~cv:service_cv)
                in
                let resp_bytes =
                  match op with
                  | Get -> get_response_bytes value_size
                  | Set -> set_response_bytes
                in
                App.Pool.submit pool ~cost (fun () ->
                    if not (Stack.Tcp.is_closed conn) then
                      App.send_all conn ~size:resp_bytes
                        ~msg:(Mc_response { id; t0 })
                        ())
              | _ -> ())
            msgs))

let run tb (ep : App.endpoints) ?(warmup = Time.ms 100)
    ?(duration = Time.sec 1) () =
  let engine = tb.Testbed.engine in
  let rng = Nest_sim.Prng.split (Engine.rng engine) in
  let latency = Nest_sim.Stats.create ~name:"memcached_us" () in
  (* Send skew: client-pool queueing between the loop deciding to issue
     an op and the request actually leaving.  Latency is measured from
     the actual send, so this is exactly the coordinated-omission bound
     on the published percentiles (wrk2). *)
  let skew = Nest_sim.Stats.create ~name:"memcached_skew_us" () in
  let gets = ref 0 and sets = ref 0 and responses = ref 0 in
  let measuring = ref false in
  let stop_at = ref max_int in
  let pool = App.Pool.create ep.App.sv_new_exec ~n:server_threads ~name:"mc" in
  let client_pool =
    App.Pool.create ep.App.cl_new_exec ~n:memtier_threads ~name:"memtier"
  in
  serve ~pool ~rng ep.App.sv_ns ~port:ep.App.sv_port;
  (* memtier: one closed loop per connection. *)
  let next_id = ref 0 in
  let new_request conn =
    incr next_id;
    let id = !next_id in
    (* SET:GET = 1:10. *)
    let op = if Nest_sim.Prng.int rng 11 = 0 then Set else Get in
    if !measuring then (match op with Get -> incr gets | Set -> incr sets);
    let bytes =
      match op with
      | Get -> get_request_bytes
      | Set -> set_request_bytes value_size
    in
    let intended = Engine.now engine in
    App.Pool.submit client_pool ~cost:client_cost_ns (fun () ->
        if !measuring then
          Nest_sim.Stats.add skew
            (Time.to_us_f (Engine.now engine - intended));
        if not (Stack.Tcp.is_closed conn) then
          App.send_all conn ~size:bytes
            ~msg:(Mc_request { op; id; t0 = Engine.now engine })
            ())
  in
  let total_conns = memtier_threads * conns_per_thread in
  for _ = 1 to total_conns do
    ignore
      (Stack.Tcp.connect ep.App.cl_ns ~dst:ep.App.sv_addr ~port:ep.App.sv_port
         ~on_established:(fun conn ->
           Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
               List.iter
                 (fun msg ->
                   match msg with
                   | Mc_response { t0; _ } ->
                     if !measuring then begin
                       Nest_sim.Stats.add latency
                         (Time.to_us_f (Engine.now engine - t0));
                       incr responses
                     end;
                     if Engine.now engine < !stop_at then new_request conn
                   | _ -> ())
                 msgs);
           new_request conn)
         ())
  done;
  let t0 = Engine.now engine in
  stop_at := t0 + warmup + duration;
  Engine.run ~until:(t0 + warmup) engine;
  measuring := true;
  Engine.run ~until:!stop_at engine;
  Engine.run ~until:(!stop_at + Time.ms 20) engine;
  measuring := false;
  Stack.Tcp.unlisten ep.App.sv_ns ~port:ep.App.sv_port;
  { responses_per_sec = float_of_int !responses /. Time.to_sec_f duration;
    latency; skew; gets = !gets; sets = !sets }

(* ---- fault-tolerant driver (chaos cells) ----

   [run] owns the engine and assumes the server outlives the clients;
   neither holds in a chaos cell.  This driver keeps memtier's shape —
   closed loops over persistent connections, the same op mix and costs —
   but treats the connection as mortal: an op that times out twice in a
   row (or a connection that dies under it) suspends the loop instead of
   wedging it or raising on backpressure.  The harness resumes suspended
   loops when it knows the service is back ([mcd_resume] from its
   re-deploy hook) — informed reconnection, not blind retry. *)

type mc_driver = {
  mcd_sent : unit -> int;
  mcd_dropped : unit -> int;
  mcd_completions : unit -> (Time.ns * float) list;
  mcd_resume : unit -> unit;
  mcd_skew : unit -> Nest_sim.Hdr.t;
  mcd_corrected : unit -> Nest_sim.Hdr.t;
}

(* The chaos driver's client: 2 threads; an op times out after 60 ms,
   a handshake after 500 ms (see [start_conn]). *)
let drive_threads = 2
let op_timeout = Time.ms 60
let connect_timeout = Time.ms 500

let drive tb ~cl_ns ~cl_new_exec ~target ?(conns = 4) ?slo ~start ~stop () =
  let engine = tb.Testbed.engine in
  let rng = Nest_sim.Prng.split (Engine.rng engine) in
  let client_pool =
    App.Pool.create cl_new_exec ~n:drive_threads ~name:"memtier-f"
  in
  let sent = ref 0 and dropped = ref 0 in
  let completions = ref [] in
  let slo_sent () =
    match slo with Some s -> Nest_sim.Slo.observe_sent s | None -> ()
  in
  let slo_done us =
    match slo with
    | Some s ->
      Nest_sim.Slo.observe_ok s;
      Nest_sim.Slo.observe_latency s us
    | None -> ()
  in
  (* Coordinated-omission ledger (wrk2): each send records how late it
     left relative to when a prompt loop would have issued it.  A
     suspension remembers *when* the loop parked, so the whole outage —
     strikes, the parked wait, the reconnect handshake — lands in the
     first post-resume send's skew rather than vanishing from the
     record the way it does from the completion latencies. *)
  let skew = Nest_sim.Hdr.create () in
  (* Corrected ledger: measured latency plus the op's own send skew —
     wrk2's corrected percentile, the honest number when skew flags
     coordinated omission. *)
  let corrected = Nest_sim.Hdr.create () in
  let suspended = ref [] in
  let suspend () = suspended := Engine.now engine :: !suspended in
  let next_id = ref 0 in
  (* Bumped by every [mcd_resume].  A connection remembers the epoch it
     was born under; giving up in a *later* epoch means the service was
     re-deployed while this loop was still striking out against the dead
     generation — reconnect at once instead of suspending, or the resume
     edge (which already passed) would never be seen again. *)
  let epoch = ref 0 in
  let rec start_conn ?intended () =
    if Engine.now engine >= stop then ()
    else
      match target () with
      | None -> suspend ()
      | Some (addr, port) ->
        let intent0 =
          match intended with Some t -> t | None -> Engine.now engine
        in
        let my_epoch = !epoch in
        let established = ref false in
        let awaiting = ref 0 in
        let strikes = ref 0 in
        let gone = ref false in
        let last_send = ref intent0 in
        (* This connection's in-flight op's send skew (one outstanding
           op per closed loop), carried from send to completion. *)
        let cur_skew = ref 0.0 in
        let give_up conn =
          if not !gone then begin
            gone := true;
            (try Stack.Tcp.close conn with _ -> ());
            if Engine.now engine < stop then
              if !epoch > my_epoch then start_conn () else suspend ()
          end
        in
        let rec new_request ~intended conn =
          if Engine.now engine >= stop || !gone then ()
          else begin
            incr next_id;
            let id = !next_id in
            let op = if Nest_sim.Prng.int rng 11 = 0 then Set else Get in
            let bytes =
              match op with
              | Get -> get_request_bytes
              | Set -> set_request_bytes value_size
            in
            incr sent;
            slo_sent ();
            awaiting := id;
            App.Pool.submit client_pool ~cost:client_cost_ns (fun () ->
                let now = Engine.now engine in
                let sk_us = Float.max 0. (Time.to_us_f (now - intended)) in
                Nest_sim.Hdr.add skew sk_us;
                cur_skew := sk_us;
                last_send := now;
                if (not !gone) && not (Stack.Tcp.is_closed conn) then
                  (* Raw send, not [App.send_all]: with the server dead
                     nothing drains the socket, so backpressure is
                     survival information here, not a protocol bug. *)
                  ignore
                    (Stack.Tcp.send conn ~size:bytes
                       ~msg:(Mc_request { op; id; t0 = now })
                       ()));
            Engine.schedule engine ~label:"mc:watchdog" ~delay:op_timeout
              (fun () ->
                if (not !gone) && !awaiting = id then begin
                  incr dropped;
                  incr strikes;
                  awaiting := 0;
                  if !strikes >= 2 || Stack.Tcp.is_closed conn then
                    give_up conn
                  else
                    new_request ~intended:(!last_send + client_cost_ns) conn
                end)
          end
        in
        let conn =
          Stack.Tcp.connect cl_ns ~dst:addr ~port
            ~on_established:(fun conn ->
              established := true;
              Stack.Tcp.set_on_receive conn (fun ~bytes:_ ~msgs ->
                  List.iter
                    (fun msg ->
                      match msg with
                      | Mc_response { id; t0 }
                        when (not !gone) && !awaiting = id ->
                        awaiting := 0;
                        strikes := 0;
                        let us = Time.to_us_f (Engine.now engine - t0) in
                        completions := (Engine.now engine, us) :: !completions;
                        Nest_sim.Hdr.add corrected (us +. !cur_skew);
                        slo_done us;
                        if Engine.now engine < stop then
                          new_request
                            ~intended:(Engine.now engine + client_cost_ns)
                            conn
                      | _ -> ())
                    msgs);
              new_request ~intended:intent0 conn)
            ()
        in
        (* A SYN into a dead VM never completes the handshake.  The
           window must outlive at least one SYN retransmission (RTO
           200 ms): right after a re-deploy the first SYN can chase a
           stale neighbour entry — the replacement pod's gratuitous ARP
           is still propagating — and only the retransmit connects. *)
        Engine.schedule engine ~label:"mc:connect" ~delay:connect_timeout
          (fun () -> if not !established then give_up conn)
  in
  let resume () =
    incr epoch;
    let parked = !suspended in
    suspended := [];
    List.iter (fun parked_at -> start_conn ~intended:parked_at ()) parked
  in
  Engine.schedule_at engine ~label:"mc:start" ~at:start (fun () ->
      for _ = 1 to conns do
        start_conn ()
      done);
  { mcd_sent = (fun () -> !sent);
    mcd_dropped = (fun () -> !dropped);
    mcd_completions = (fun () -> List.rev !completions);
    mcd_resume = resume;
    mcd_skew = (fun () -> skew);
    mcd_corrected = (fun () -> corrected) }
