type t = {
  dev : Dev.t;
  original_tx : Frame.t -> unit;
  mutable passed : int;
  mutable dropped_loss : int;
  mutable dropped_overflow : int;
  mutable in_flight : int;
  mutable active : bool;
}

let shape engine dev ?(loss = 0.0) ?(delay_ns = 0) ?(jitter_ns = 0)
    ?(limit = max_int) ~rng () =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Netem.shape: loss in [0,1]";
  let t =
    { dev; original_tx = dev.Dev.tx_fn; passed = 0; dropped_loss = 0;
      dropped_overflow = 0; in_flight = 0; active = true }
  in
  let shaped frame =
    if not t.active then t.original_tx frame
    else if loss > 0.0 && Nest_sim.Prng.float rng < loss then begin
      t.dropped_loss <- t.dropped_loss + 1;
      dev.Dev.stats.Dev.drops <- dev.Dev.stats.Dev.drops + 1
    end
    else if t.in_flight >= limit then begin
      t.dropped_overflow <- t.dropped_overflow + 1;
      dev.Dev.stats.Dev.drops <- dev.Dev.stats.Dev.drops + 1
    end
    else begin
      let extra =
        if jitter_ns > 0 then Nest_sim.Prng.int rng (jitter_ns + 1) else 0
      in
      t.in_flight <- t.in_flight + 1;
      let delay = delay_ns + extra in
      (* Pure link delay: attribute it as queue-only time — the frame
         waits but no context serves it. *)
      (match Frame.prov frame with
      | None -> ()
      | Some p ->
        let now = Nest_sim.Engine.now engine in
        Nest_sim.Provenance.add p ~hop:(dev.Dev.name ^ ":netem")
          ~enqueue_ns:now ~start_ns:(now + delay) ~end_ns:(now + delay));
      Nest_sim.Engine.schedule engine ~delay (fun () ->
          t.in_flight <- t.in_flight - 1;
          t.passed <- t.passed + 1;
          t.original_tx frame)
    end
  in
  Dev.set_tx dev shaped;
  t

let remove t =
  t.active <- false;
  Dev.set_tx t.dev t.original_tx

type profile = {
  p_name : string;
  p_delay : Nest_sim.Time.ns;
  p_jitter : Nest_sim.Time.ns;
  p_loss : float;
  p_limit : int option;
}

let us = Nest_sim.Time.us
let ms = Nest_sim.Time.ms

let profiles =
  [ { p_name = "datacenter"; p_delay = us 25; p_jitter = us 5; p_loss = 0.0;
      p_limit = None };
    { p_name = "wan"; p_delay = ms 10; p_jitter = ms 1; p_loss = 0.001;
      p_limit = None };
    { p_name = "edge"; p_delay = ms 30; p_jitter = ms 5; p_loss = 0.005;
      p_limit = None };
    { p_name = "lossy"; p_delay = ms 5; p_jitter = ms 2; p_loss = 0.02;
      p_limit = Some 64 } ]

let profile name = List.find_opt (fun p -> String.equal p.p_name name) profiles
let profile_names () = List.map (fun p -> p.p_name) profiles

let passed t = t.passed
let dropped_loss t = t.dropped_loss
let dropped_overflow t = t.dropped_overflow
