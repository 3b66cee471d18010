open Nest_net
open Nestfusion
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type stream_result = { mbps : float; bytes_delivered : int; sends : int }

(* Application-side per-call costs (netperf itself is a thin loop). *)
let app_send_cost_ns = 180
let app_recv_cost_ns = 250

let tcp_stream tb (ep : App.endpoints) ~msg_size ?(warmup = Time.ms 100)
    ?(duration = Time.sec 2) () =
  let engine = tb.Testbed.engine in
  let received = ref 0 in
  let sends = ref 0 in
  Stack.Tcp.listen ep.App.sv_ns ~port:ep.App.sv_port ~on_accept:(fun conn ->
      Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs:_ ->
          received := !received + bytes;
          Nest_sim.Exec.submit ep.App.sv_exec ~cost:app_recv_cost_ns
            (fun () -> ())));
  let stop_at = ref max_int in
  let rec fill conn =
    if Engine.now engine < !stop_at then begin
      let accepted = ref true in
      while !accepted do
        if Stack.Tcp.send conn ~size:msg_size () then begin
          incr sends;
          Nest_sim.Exec.submit ep.App.cl_exec ~cost:app_send_cost_ns
            (fun () -> ())
        end
        else accepted := false
      done;
      Stack.Tcp.set_on_writable conn (fun () -> fill conn)
    end
  in
  let _conn =
    Stack.Tcp.connect ep.App.cl_ns ~dst:ep.App.sv_addr ~port:ep.App.sv_port
      ~on_established:(fun conn -> fill conn)
      ()
  in
  let t0 = Engine.now engine in
  stop_at := t0 + warmup + duration;
  Engine.run ~until:(t0 + warmup) engine;
  let base = !received in
  Engine.run ~until:!stop_at engine;
  Stack.Tcp.unlisten ep.App.sv_ns ~port:ep.App.sv_port;
  let bytes = !received - base in
  let mbps = float_of_int (bytes * 8) /. Time.to_sec_f duration /. 1e6 in
  { mbps; bytes_delivered = bytes; sends = !sends }

type rr_result = { latency : Nest_sim.Stats.t; transactions : int }

let udp_echo_server ns ~port ~exec =
  Stack.Udp.bind ns ~port (fun s ~src:ip ~src_port:p payload ->
      (* Echo after the server's per-transaction application work. *)
      Nest_sim.Exec.submit exec ~cost:app_recv_cost_ns (fun () ->
          Stack.Udp.sendto s ~dst:ip ~dst_port:p payload))

let udp_rr tb (ep : App.endpoints) ~msg_size ?(warmup = Time.ms 50)
    ?(duration = Time.sec 1) () =
  let engine = tb.Testbed.engine in
  let latency = Nest_sim.Stats.create ~name:"udp_rr_us" () in
  let transactions = ref 0 in
  let measuring = ref false in
  let stop_at = ref max_int in
  let server =
    udp_echo_server ep.App.sv_ns ~port:ep.App.sv_port ~exec:ep.App.sv_exec
  in
  let sent_at = ref 0 in
  let client_sock = ref None in
  (* Every request is the same immutable payload: built once. *)
  let request = Payload.raw msg_size in
  let send_next () =
    match !client_sock with
    | None -> ()
    | Some sock ->
      sent_at := Engine.now engine;
      Stack.Udp.sendto sock ~dst:ep.App.sv_addr ~dst_port:ep.App.sv_port
        request
  in
  let sock =
    Stack.Udp.bind ep.App.cl_ns ~port:0 (fun _ ~src:_ ~src_port:_ _ ->
        let rtt = Engine.now engine - !sent_at in
        if !measuring then begin
          Nest_sim.Stats.add latency (Time.to_us_f rtt);
          incr transactions
        end;
        if Engine.now engine < !stop_at then
          Nest_sim.Exec.submit ep.App.cl_exec ~cost:app_send_cost_ns send_next)
  in
  client_sock := Some sock;
  let t0 = Engine.now engine in
  stop_at := t0 + warmup + duration;
  send_next ();
  Engine.run ~until:(t0 + warmup) engine;
  measuring := true;
  Engine.run ~until:!stop_at engine;
  (* Let the final in-flight transaction land. *)
  Engine.run ~until:(!stop_at + Time.ms 10) engine;
  Stack.Udp.close server;
  Stack.Udp.close sock;
  { latency; transactions = !transactions }

let default_sizes = [ 64; 128; 256; 512; 1024; 1280; 2048; 4096; 8192; 16384 ]

(* ---- fault-tolerant UDP_RR driver (chaos cells) ----

   [udp_rr] above owns the engine: it drives [Engine.run] to completion,
   which a chaos cell — whose engine is busy crashing VMs — cannot use.
   This driver is purely event-scheduled: same closed loop, same
   application costs, but each transaction is armed with a resend
   watchdog so the loop survives a dead server instead of wedging on the
   first lost datagram.  Transactions lost to the watchdog are counted;
   completions carry their wall-clock time so the harness can split
   latency into during-fault and post-recovery windows. *)

type Nest_net.Payload.app_msg += Rr_tagged of { seq : int; t0 : Time.ns }

type rr_driver = {
  rrd_sent : unit -> int;
  rrd_lost : unit -> int;
  rrd_completions : unit -> (Time.ns * float) list;
  rrd_skew : unit -> Nest_sim.Hdr.t;
  rrd_corrected : unit -> Nest_sim.Hdr.t;
}

(* How long a UDP_RR loop waits for a reply before it counts the
   transaction lost and sends the next one. *)
let resend_timeout = Time.ms 10

let udp_rr_driver tb ~cl_ns ~cl_exec ~target ~msg_size ?slo ~start ~stop () =
  let engine = tb.Testbed.engine in
  let sent = ref 0 and lost = ref 0 in
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
  (* Sequence tags tell a live transaction's reply from a stale one: a
     reply outrun by its own watchdog must not complete the transaction
     the watchdog already re-drove. *)
  let outstanding = ref 0 in
  let seq = ref 0 in
  let sock = ref None in
  (* Coordinated-omission ledger (wrk2): [intended] is when this send
     would have left the client had nothing stalled — the previous
     completion plus the client's own per-call cost, or, after a
     watchdog fire, the lost op's send time (the loop owed a send it
     never made).  Skew = actual - intended; a closed loop that wedges
     for a second shows up here even though its recorded RTTs stay
     flat. *)
  let skew = Nest_sim.Hdr.create () in
  (* Corrected ledger: per completion, measured RTT plus that op's own
     send skew — wrk2's corrected percentile.  [cur_skew] carries the
     in-flight op's skew from send to completion (the loop is
     synchronous, so there is exactly one). *)
  let corrected = Nest_sim.Hdr.create () in
  let cur_skew = ref 0.0 in
  let intended = ref start in
  let last_send = ref start in
  let rec send_next () =
    if Engine.now engine < stop then begin
      let now = Engine.now engine in
      let sk_us = Float.max 0. (Time.to_us_f (now - !intended)) in
      Nest_sim.Hdr.add skew sk_us;
      cur_skew := sk_us;
      last_send := now;
      incr seq;
      let s = !seq in
      outstanding := s;
      incr sent;
      slo_sent ();
      (match (!sock, target ()) with
      | Some sk, Some (ip, p) ->
        Stack.Udp.sendto sk ~dst:ip ~dst_port:p
          (Payload.make ~size:msg_size
             (Rr_tagged { seq = s; t0 = Engine.now engine }))
      | _ -> ());
      Engine.schedule engine ~label:"rr:watchdog" ~delay:resend_timeout
        (fun () ->
          if !outstanding = s then begin
            incr lost;
            outstanding := 0;
            intended := !last_send + app_send_cost_ns;
            send_next ()
          end)
    end
  in
  let sk =
    Stack.Udp.bind cl_ns ~port:0 (fun _ ~src:_ ~src_port:_ payload ->
        match payload.Payload.msg with
        | Some (Rr_tagged { seq = s; t0 }) when !outstanding = s ->
          outstanding := 0;
          let us = Time.to_us_f (Engine.now engine - t0) in
          completions := (Engine.now engine, us) :: !completions;
          Nest_sim.Hdr.add corrected (us +. !cur_skew);
          slo_done us;
          if Engine.now engine < stop then begin
            intended := Engine.now engine + app_send_cost_ns;
            Nest_sim.Exec.submit cl_exec ~cost:app_send_cost_ns send_next
          end
        | _ -> ())
  in
  sock := Some sk;
  Engine.schedule_at engine ~label:"rr:start" ~at:start send_next;
  { rrd_sent = (fun () -> !sent);
    rrd_lost = (fun () -> !lost);
    rrd_completions = (fun () -> List.rev !completions);
    rrd_skew = (fun () -> skew);
    rrd_corrected = (fun () -> corrected) }

(* ---- scalable UDP echo pool (fleet serving side) ----

   [udp_echo_server] is one worker context behind one socket.  The pool
   generalizes it into the serving side of a fleet node: [max] worker
   contexts created up front (so the exec roster is deterministic),
   requests round-robined over the currently active prefix, and an
   [epool_set_active] knob an autoscaler drives.  Worker 0 starts
   ready.  Warm standby workers activate instantly; cold ones pay
   [boot_delay].  Scale-down is a drain by construction: a deactivated
   worker merely stops receiving new work — everything already submitted to its exec completes on
   schedule, so no request is ever stranded. *)

type echo_pool = {
  epool_set_active : int -> unit;
  epool_active : unit -> int;
  epool_ready : unit -> int;
  epool_served : unit -> int;
  epool_cold_starts : unit -> int;
  epool_close : unit -> unit;
}

type worker_state = Cold | Warm | Booting | Ready

let boot_delay = Time.ms 50

let udp_echo_pool ~ns ~port ~new_exec ?(service_cost = app_recv_cost_ns)
    ~max:max_workers ?(standby = 0) ?slo () =
  if max_workers < 1 then invalid_arg "udp_echo_pool: max must be >= 1";
  if standby < 0 then invalid_arg "udp_echo_pool: standby must be >= 0";
  if service_cost < 0 then
    invalid_arg "udp_echo_pool: service_cost must be >= 0";
  let workers =
    Array.init max_workers (fun i -> new_exec (Printf.sprintf "pod%d" i))
  in
  let engine = Nest_sim.Exec.engine workers.(0) in
  let state =
    Array.init max_workers (fun i ->
        if i = 0 then Ready else if i <= standby then Warm else Cold)
  in
  let active = ref 1 in
  let served = ref 0 in
  let cold_starts = ref 0 in
  let rr = ref 0 in
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
  (* Next Ready worker in the active prefix, round-robin.  Worker 0 is
     Ready from creation and the knob never deactivates it, so the scan
     cannot come up empty. *)
  let pick () =
    let n = !active in
    let rec scan tries =
      let i = !rr mod n in
      rr := (!rr + 1) mod n;
      match state.(i) with
      | Ready -> i
      | Cold | Warm | Booting -> if tries <= 1 then 0 else scan (tries - 1)
    in
    scan n
  in
  let sock =
    Stack.Udp.bind ns ~port (fun s ~src:ip ~src_port:p payload ->
        incr served;
        slo_sent ();
        let arrived = Engine.now engine in
        let w = workers.(pick ()) in
        let finish =
          Nest_sim.Exec.submit_timed w ~cost:service_cost (fun () ->
              slo_done (Time.to_us_f (Engine.now engine - arrived));
              Stack.Udp.sendto s ~dst:ip ~dst_port:p payload)
        in
        ignore (finish : Time.ns))
  in
  let set_active n =
    let n = Stdlib.min max_workers (Stdlib.max 1 n) in
    let cur = !active in
    if n > cur then begin
      for i = cur to n - 1 do
        match state.(i) with
        | Warm -> state.(i) <- Ready  (* pre-provisioned: instant *)
        | Cold ->
          state.(i) <- Booting;
          incr cold_starts;
          Engine.schedule engine ~label:"epool:boot" ~delay:boot_delay
            (fun () -> if state.(i) = Booting then state.(i) <- Ready)
        | Booting | Ready -> ()
      done;
      active := n
    end
    else if n < cur then begin
      (* Drain: stop routing; in-flight work on the drained execs
         completes on schedule.  A drained worker stays warm — it was
         just running. *)
      for i = n to cur - 1 do
        match state.(i) with Ready | Booting -> state.(i) <- Warm | _ -> ()
      done;
      active := n
    end
  in
  {
    epool_set_active = set_active;
    epool_active = (fun () -> !active);
    epool_ready =
      (fun () ->
        Array.fold_left
          (fun acc st -> if st = Ready then acc + 1 else acc)
          0 state);
    epool_served = (fun () -> !served);
    epool_cold_starts = (fun () -> !cold_starts);
    epool_close = (fun () -> Stack.Udp.close sock);
  }
