(* Open-loop load generator.  See loadgen.mli.

   Each generator keeps one pending event per process.  The arrival
   chain is lazy: exactly one arrival event is pending at a time, and
   firing it pulls the next offset from the process, so an infinite
   rate process costs one heap entry and a schedule ending past [stop]
   stops pulling.  Timeouts are one deadline timer: in-flight requests
   sit in a ring of intended starts indexed by [seq], and a single
   [loadgen:timeout] event waits for the oldest unresolved deadline,
   re-armed each time it fires (the way TCP keeps one RTO timer per
   connection, not one per segment).

   Deadline rule: at any instant, the generator first retires every
   request whose deadline (intended start + timeout) is <= now, and
   only then takes an arrival or a reply — [arrive] and [complete]
   sweep first.  The timer fires at the oldest deadline itself, so a
   loss always reaches admission at its deadline's own instant. *)

module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type counts = {
  offered : int;
  admitted : int;
  shed : int;
  lost : int;
  completed : int;
}

type t = {
  g_engine : Engine.t;
  g_arrival_lbl : Engine.label;  (* resolved once: one event per arrival *)
  g_timeout_lbl : Engine.label;
  g_arrival : Arrival.t;
  g_sizes : Size_dist.t;
  g_rng : Nest_sim.Prng.t;
  g_admission : Admission.t;
  g_timeout : Time.ns;
  g_slo : Nest_sim.Slo.t option;
  g_dispatch : seq:int -> size:int -> unit;
  g_start : Time.ns;
  g_stop : Time.ns;
  (* In flight: slot [seq land (length - 1)] holds request [seq]'s
     intended start, or -1 once it is resolved.  Requests [g_oldest] to
     [g_seq] are the window; everything below [g_oldest] is resolved.
     The length is a power of two, doubled when the window outgrows
     it. *)
  mutable g_ring : Time.ns array;
  mutable g_oldest : int;
  mutable g_timer_armed : bool;
  (* The two event bodies, built once per generator. *)
  mutable g_on_arrival : unit -> unit;
  mutable g_on_timer : unit -> unit;
  g_latency : Nest_sim.Hdr.t;
  mutable g_offered : int;
  mutable g_admitted : int;
  mutable g_shed : int;
  mutable g_lost : int;
  mutable g_completed : int;
  mutable g_outstanding : int;
  mutable g_seq : int;
  (* Completion trace, flat and growable: entry k is the k-th
     completion's time and latency (ns); [g_completed] entries are in
     use. *)
  mutable g_done_at : Time.ns array;
  mutable g_done_ns : Time.ns array;
}

let slo_sent t =
  match t.g_slo with Some s -> Nest_sim.Slo.observe_sent s | None -> ()

let slo_done t us =
  match t.g_slo with
  | Some s ->
    Nest_sim.Slo.observe_ok s;
    Nest_sim.Slo.observe_latency s us
  | None -> ()

(* Retires the window's resolved prefix and every request whose
   deadline is <= now, in [seq] order.  Intended starts grow with
   [seq], so the first unresolved request still inside its deadline
   ends the sweep. *)
let sweep t =
  let now = Engine.now t.g_engine in
  let mask = Array.length t.g_ring - 1 in
  let continue = ref true in
  while !continue && t.g_oldest <= t.g_seq do
    let i = t.g_oldest land mask in
    let intended = t.g_ring.(i) in
    if intended < 0 then t.g_oldest <- t.g_oldest + 1
    else if intended + t.g_timeout <= now then begin
      t.g_ring.(i) <- -1;
      t.g_oldest <- t.g_oldest + 1;
      t.g_lost <- t.g_lost + 1;
      t.g_outstanding <- t.g_outstanding - 1;
      Admission.on_lost t.g_admission
    end
    else continue := false
  done

let arm_timer t ~at =
  t.g_timer_armed <- true;
  Engine.schedule_labeled t.g_engine t.g_timeout_lbl ~at t.g_on_timer

(* The timer's body: sweep, then wait for the new oldest deadline. *)
let on_timer t =
  t.g_timer_armed <- false;
  sweep t;
  if t.g_oldest <= t.g_seq then
    arm_timer t
      ~at:(t.g_ring.(t.g_oldest land (Array.length t.g_ring - 1)) + t.g_timeout)

(* Files [seq] (= [g_seq], the window's new end) as in flight from
   [now]. *)
let push_in_flight t seq now =
  let len = Array.length t.g_ring in
  if seq - t.g_oldest >= len then begin
    let ring = Array.make (2 * len) (-1) in
    for s = t.g_oldest to seq - 1 do
      ring.(s land ((2 * len) - 1)) <- t.g_ring.(s land (len - 1))
    done;
    t.g_ring <- ring
  end;
  t.g_ring.(seq land (Array.length t.g_ring - 1)) <- now

let arrive t =
  sweep t;
  t.g_offered <- t.g_offered + 1;
  (* A shed is a deliberate fast-fail answered at admission — graceful
     degradation, not an outage — so it must not burn the availability
     objective (the [shed] counter keeps refusals first-class).
     Availability judges admitted work: a request the system accepted
     and then lost to a timeout is the error that burns the budget. *)
  if not (Admission.decide t.g_admission ~outstanding:t.g_outstanding) then
    t.g_shed <- t.g_shed + 1
  else begin
    slo_sent t;
    t.g_admitted <- t.g_admitted + 1;
    t.g_seq <- t.g_seq + 1;
    let seq = t.g_seq in
    let size = Size_dist.draw t.g_sizes t.g_rng in
    let now = Engine.now t.g_engine in
    push_in_flight t seq now;
    t.g_outstanding <- t.g_outstanding + 1;
    t.g_dispatch ~seq ~size;
    if not t.g_timer_armed then arm_timer t ~at:(now + t.g_timeout)
  end

let schedule_next t =
  let off = Arrival.next t.g_arrival in
  (* Compared as an offset: [g_start + off] can overflow. *)
  if off <> Arrival.ended && off < t.g_stop - t.g_start then
    Engine.schedule_labeled t.g_engine t.g_arrival_lbl ~at:(t.g_start + off)
      t.g_on_arrival

let default_max_outstanding = 64

let create ~engine ~arrival ~sizes ~rng ?admission
    ?burn_source ?(timeout = Time.ms 100) ?slo ~dispatch ~start ~stop () =
  if timeout <= 0 then invalid_arg "Loadgen.create: timeout must be > 0";
  if stop <= start then invalid_arg "Loadgen.create: stop must be > start";
  (* The admission horizon outlives the last arrival by one timeout so a
     Burn controller's final windows still see the tail completions, but
     never the drain beyond them. *)
  let admission =
    Admission.create ~engine ?burn_source ~stop:(stop + timeout)
      (match admission with
      | Some p -> p
      | None -> Admission.fixed default_max_outstanding)
  in
  let t =
    { g_engine = engine;
      g_arrival_lbl = Engine.label engine "loadgen:arrival";
      g_timeout_lbl = Engine.label engine "loadgen:timeout";
      g_arrival = arrival; g_sizes = sizes; g_rng = rng;
      g_admission = admission; g_timeout = timeout; g_slo = slo;
      g_dispatch = dispatch; g_start = start; g_stop = stop;
      g_ring = Array.make 64 (-1); g_oldest = 1; g_timer_armed = false;
      g_on_arrival = ignore; g_on_timer = ignore;
      g_latency = Nest_sim.Hdr.create ();
      g_offered = 0; g_admitted = 0; g_shed = 0; g_lost = 0;
      g_completed = 0; g_outstanding = 0; g_seq = 0; g_done_at = [||];
      g_done_ns = [||] }
  in
  t.g_on_arrival <- (fun () -> arrive t; schedule_next t);
  t.g_on_timer <- (fun () -> on_timer t);
  schedule_next t;
  t

let record_completion t at latency =
  let n = t.g_completed in
  if n = Array.length t.g_done_at then begin
    let cap = max 64 (2 * n) in
    let done_at = Array.make cap 0 and done_ns = Array.make cap 0 in
    Array.blit t.g_done_at 0 done_at 0 n;
    Array.blit t.g_done_ns 0 done_ns 0 n;
    t.g_done_at <- done_at;
    t.g_done_ns <- done_ns
  end;
  t.g_done_at.(n) <- at;
  t.g_done_ns.(n) <- latency;
  t.g_completed <- n + 1

let complete t ~seq =
  sweep t;
  (* Below the window, or resolved inside it: stale (timed out already,
     or a duplicate reply); past its end: never issued. *)
  if seq >= t.g_oldest && seq <= t.g_seq then begin
    let i = seq land (Array.length t.g_ring - 1) in
    let intended = t.g_ring.(i) in
    if intended >= 0 then begin
      t.g_ring.(i) <- -1;
      t.g_outstanding <- t.g_outstanding - 1;
      let now = Engine.now t.g_engine in
      (* Boxed once here: each of the three calls below takes the float
         boxed, and an unboxed [us] would be boxed again for each. *)
      let us = Sys.opaque_identity (Time.to_us_f (now - intended)) in
      Nest_sim.Hdr.add t.g_latency us;
      record_completion t now (now - intended);
      Admission.on_complete t.g_admission ~latency_us:us;
      slo_done t us
    end
  end

let counts t =
  { offered = t.g_offered; admitted = t.g_admitted; shed = t.g_shed;
    lost = t.g_lost; completed = t.g_completed }

let latency t = t.g_latency
let iter_completions t f =
  for k = 0 to t.g_completed - 1 do
    f t.g_done_at.(k) t.g_done_ns.(k)
  done
let admission_limit t = Admission.limit t.g_admission
let admission_transitions t = Admission.transitions t.g_admission

(* ---- UDP frontend ---- *)

type Nest_net.Payload.app_msg += Lg_req of { gen : int; seq : int }

(* Same thin-loop application costs as the netperf drivers. *)
let app_send_cost_ns = 180
let app_recv_cost_ns = 250

let udp ~engine ~arrival ~sizes ~rng ?admission ?burn_source ?timeout
    ?slo ~gen_id ~ns ~exec ~target ~start ~stop () =
  let sock = ref None in
  let dispatch ~seq ~size =
    match (!sock, target ()) with
    | Some sk, Some (ip, port) ->
      Nest_sim.Exec.submit exec ~cost:app_send_cost_ns (fun () ->
          Nest_net.Stack.Udp.sendto sk ~dst:ip ~dst_port:port
            (Nest_net.Payload.make ~size (Lg_req { gen = gen_id; seq })))
    | _ -> ()  (* unreachable service: the admission timeout counts it *)
  in
  let t =
    create ~engine ~arrival ~sizes ~rng ?admission ?burn_source
      ?timeout ?slo ~dispatch ~start ~stop ()
  in
  let sk =
    Nest_net.Stack.Udp.bind ns ~port:0 (fun _ ~src:_ ~src_port:_ payload ->
        match payload.Nest_net.Payload.msg with
        | Some (Lg_req { gen; seq }) when gen = gen_id ->
          complete t ~seq;
          Nest_sim.Exec.charge exec ~cost:app_recv_cost_ns
        | _ -> ())
  in
  sock := Some sk;
  t
