(* Declarative SLOs evaluated live, window by window, during a run.

   A monitor owns a set of specs (latency percentile target,
   availability floor, goodput floor).  Workload drivers feed it raw
   observations — an operation offered, an operation completed, a
   completion latency — and each spec's accumulator is evaluated at a
   fixed window cadence on the engine clock.  Per window we compute a
   burn rate:

   - availability: (window error rate) / (error budget [1 - target]);
   - latency p:    (fraction of samples over the limit) / (1 - p/100);
   - goodput:      floor / (window completion rate) — the shortfall
                   factor, [infinity] for a silent window.

   burn > 1 means the window consumed more than its entire budget and
   counts as a violation: a trace instant (cat ["slo"]) is recorded and
   a [slo.<name>.violations] counter is bumped (registered on first
   violation only, so compliant runs do not grow zero rows in metric
   dumps).  Everything is driven by engine time, so results are
   deterministic and mergeable across [--jobs] cells.

   Ticks self-schedule only up to the [stop] horizon given at creation:
   a monitor must not keep an engine queue alive past the workload it
   observes (chaos harvests drain with [Engine.run]). *)

type objective =
  | Latency_p of { p : float; limit_us : float }
  | Availability of { target : float }
  | Goodput of { floor_per_s : float }

type spec = { sname : string; objective : objective; window : Time.ns }

type compliance = {
  c_name : string;
  c_objective : objective;
  c_windows : int;
  c_violations : int;
  c_worst_burn : float;
}

type tracker = {
  spec : spec;
  mutable w_sent : int;
  mutable w_ok : int;
  mutable w_lat_n : int;
  mutable w_lat_over : int;
  mutable windows : int;
  mutable violations : int;
  mutable worst_burn : float;
  (* Burn of the most recently completed window — the live reading the
     admission controller and the autoscaler key off.  Updated only
     inside the window tick (an engine event), so any same-shard reader
     sees a value that is a pure function of the event order. *)
  mutable last_burn : float;
}

type t = {
  engine : Engine.t;
  trackers : tracker array;
  lat : Hdr.t;  (* run-wide completion latency, microseconds *)
  stop_at : Time.ns;
}

let validate s =
  (match s.objective with
  | Latency_p { p; limit_us } ->
    if not (p > 0.0 && p < 100.0) then
      invalid_arg "Slo: latency percentile must be in (0, 100)";
    if not (limit_us > 0.0) then invalid_arg "Slo: latency limit must be > 0"
  | Availability { target } ->
    if not (target > 0.0 && target < 1.0) then
      invalid_arg "Slo: availability target must be in (0, 1)"
  | Goodput { floor_per_s } ->
    if not (floor_per_s > 0.0) then
      invalid_arg "Slo: goodput floor must be > 0");
  if s.window <= 0 then invalid_arg "Slo: window must be > 0"

let latency_p ?(window = Time.ms 500) ~p ~limit_us () =
  { sname = Printf.sprintf "lat_p%g" p; objective = Latency_p { p; limit_us };
    window }

let availability ?(window = Time.ms 500) ~target () =
  { sname = "availability"; objective = Availability { target }; window }

let goodput ?(window = Time.ms 500) ~floor_per_s () =
  { sname = "goodput"; objective = Goodput { floor_per_s }; window }

let pp_objective fmt = function
  | Latency_p { p; limit_us } ->
    Format.fprintf fmt "p%g <= %gus" p limit_us
  | Availability { target } -> Format.fprintf fmt "avail >= %g" target
  | Goodput { floor_per_s } -> Format.fprintf fmt "goodput >= %g/s" floor_per_s

let burn tk =
  match tk.spec.objective with
  | Availability { target } ->
    if tk.w_sent = 0 then 0.0
    else begin
      let err =
        1.0 -. (float_of_int tk.w_ok /. float_of_int tk.w_sent)
      in
      err /. (1.0 -. target)
    end
  | Latency_p { p; limit_us = _ } ->
    if tk.w_lat_n = 0 then 0.0
    else begin
      let over = float_of_int tk.w_lat_over /. float_of_int tk.w_lat_n in
      over /. (1.0 -. (p /. 100.0))
    end
  | Goodput { floor_per_s } ->
    let secs = float_of_int tk.spec.window /. 1e9 in
    let rate = float_of_int tk.w_ok /. secs in
    if rate >= floor_per_s then 0.0
    else if rate <= 0.0 then infinity
    else floor_per_s /. rate

let tick t tk () =
  let b = burn tk in
  tk.windows <- tk.windows + 1;
  tk.last_burn <- b;
  if b > tk.worst_burn then tk.worst_burn <- b;
  if b > 1.0 then begin
    tk.violations <- tk.violations + 1;
    Engine.trace_instant t.engine ~cat:"slo" ~name:tk.spec.sname
      ~arg:(Printf.sprintf "burn=%.2f" b) ();
    Metrics.bump
      (Metrics.counter (Engine.metrics t.engine)
         ("slo." ^ tk.spec.sname ^ ".violations"))
  end;
  tk.w_sent <- 0;
  tk.w_ok <- 0;
  tk.w_lat_n <- 0;
  tk.w_lat_over <- 0

let rec arm t tk ~at =
  if at <= t.stop_at then
    Engine.schedule_at t.engine ~label:"slo" ~at (fun () ->
        tick t tk ();
        arm t tk ~at:(at + tk.spec.window))

let create ?(error = 0.01) ?start ~specs ~stop engine =
  List.iter validate specs;
  let t =
    {
      engine;
      trackers =
        Array.of_list
          (List.map
             (fun spec ->
               { spec; w_sent = 0; w_ok = 0; w_lat_n = 0; w_lat_over = 0;
                 windows = 0; violations = 0; worst_burn = 0.0;
                 last_burn = 0.0 })
             specs);
      lat = Hdr.create ~error ();
      stop_at = stop;
    }
  in
  (* Windows begin at [start] (default: creation time): a monitor armed
     before its workload must not count the idle lead-in as silent
     goodput windows. *)
  let base =
    match start with
    | Some s -> Stdlib.max s (Engine.now engine)
    | None -> Engine.now engine
  in
  Array.iter (fun tk -> arm t tk ~at:(base + tk.spec.window)) t.trackers;
  t

let observe_sent t =
  let n = Array.length t.trackers in
  for i = 0 to n - 1 do
    let tk = Array.unsafe_get t.trackers i in
    tk.w_sent <- tk.w_sent + 1
  done

let observe_ok t =
  let n = Array.length t.trackers in
  for i = 0 to n - 1 do
    let tk = Array.unsafe_get t.trackers i in
    tk.w_ok <- tk.w_ok + 1
  done

let observe_latency t us =
  Hdr.add t.lat us;
  let n = Array.length t.trackers in
  for i = 0 to n - 1 do
    let tk = Array.unsafe_get t.trackers i in
    match tk.spec.objective with
    | Latency_p { limit_us; _ } ->
      tk.w_lat_n <- tk.w_lat_n + 1;
      if us > limit_us then tk.w_lat_over <- tk.w_lat_over + 1
    | Availability _ | Goodput _ -> ()
  done

let latency t = t.lat

let last_burn t ~name =
  Array.fold_left
    (fun acc tk ->
      if String.equal tk.spec.sname name then Some tk.last_burn else acc)
    None t.trackers

let worst_last_burn t =
  Array.fold_left (fun acc tk -> Float.max acc tk.last_burn) 0.0 t.trackers

let report t =
  Array.to_list
    (Array.map
       (fun tk ->
         {
           c_name = tk.spec.sname;
           c_objective = tk.spec.objective;
           c_windows = tk.windows;
           c_violations = tk.violations;
           c_worst_burn = tk.worst_burn;
         })
       t.trackers)

let compliant c = c.c_violations = 0

let pp_compliance fmt c =
  Format.fprintf fmt "%-12s %-18s windows=%-3d violations=%-3d worst_burn=%.2f %s"
    c.c_name
    (Format.asprintf "%a" pp_objective c.c_objective)
    c.c_windows c.c_violations c.c_worst_burn
    (if compliant c then "OK" else "VIOLATED")
