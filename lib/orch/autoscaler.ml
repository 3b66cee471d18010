(* Per-node burn-driven replica controller.  See autoscaler.mli.

   All mutation happens inside the controller's own tick events; the
   burn source is read there and nowhere else.  Cooldowns are kept on
   the engine clock, so the whole trajectory — every (when, desired)
   pair — is a pure function of the shard's deterministic event
   order. *)

module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type t = {
  as_engine : Engine.t;
  as_tick : Engine.label;  (* "<label>:tick", resolved once *)
  as_min : int;
  as_max : int;
  as_down_cd : Time.ns;
  as_burn : unit -> float;
  as_apply : int -> unit;
  mutable as_desired : int;
  mutable as_last_up : Time.ns;    (* when we last scaled up *)
  mutable as_last_down : Time.ns;  (* when we last scaled down *)
  mutable as_transitions : int;
  mutable as_events : (Time.ns * int) list;  (* newest first *)
}

let set t next =
  if next <> t.as_desired then begin
    t.as_desired <- next;
    t.as_transitions <- t.as_transitions + 1;
    t.as_events <- (Engine.now t.as_engine, next) :: t.as_events;
    t.as_apply next
  end

(* Burn thresholds: scale up once the whole error budget is burning,
   down once a quarter of it is. *)
let up_burn = 1.0
let down_burn = 0.25

(* Ticks are a window apart, so a scale-up may act on every tick; only
   scale-down waits out a cooldown. *)
let tick t () =
  let now = Engine.now t.as_engine in
  let b = t.as_burn () in
  if b >= up_burn then begin
    if t.as_desired < t.as_max then begin
      (* Proportional jump: a burn of 3 wants roughly 3x the capacity.
         Always at least one step, never past the planned headroom. *)
      let want =
        int_of_float (Float.ceil (float_of_int t.as_desired *. b))
      in
      let next = Stdlib.min t.as_max (Stdlib.max (t.as_desired + 1) want) in
      t.as_last_up <- now;
      set t next
    end
  end
  else if b <= down_burn then begin
    if
      now - t.as_last_down >= t.as_down_cd
      && now - t.as_last_up >= t.as_down_cd
      && t.as_desired > t.as_min
    then begin
      t.as_last_down <- now;
      set t (t.as_desired - 1)
    end
  end
(* between down and up: hold — the hysteresis band *)

let rec arm t ~window ~stop ~at =
  if at <= stop then
    Engine.schedule_labeled t.as_engine t.as_tick ~at (fun () ->
        tick t ();
        arm t ~window ~stop ~at:(at + window))

let create ~engine ?(label = "autoscaler") ~min ~max ?(window = Time.ms 100)
    ~burn_source ~apply ~start ~stop () =
  if min < 1 then invalid_arg "Autoscaler: min must be >= 1";
  if max < min then invalid_arg "Autoscaler: max must be >= min";
  if window <= 0 then invalid_arg "Autoscaler: window must be > 0";
  let down_cd = 4 * window in
  let t =
    {
      as_engine = engine;
      as_tick = Engine.label engine (label ^ ":tick");
      as_min = min;
      as_max = max;
      as_down_cd = down_cd;
      as_burn = burn_source;
      as_apply = apply;
      as_desired = min;
      (* Start both dates far enough back that the first tick may
         already act; negative sentinels would break on start = 0. *)
      as_last_up = start - window;
      as_last_down = start - down_cd;
      as_transitions = 0;
      as_events = [];
    }
  in
  arm t ~window ~stop ~at:(start + window);
  t

let desired t = t.as_desired
let transitions t = t.as_transitions
let events t = List.rev t.as_events
