(* Pluggable shed policies for open-loop admission.  See admission.mli.

   All state transitions happen inside events of the owning engine — the
   Burn policy's window ticks and the per-arrival [decide] calls — so a
   controller's behaviour is a pure function of its shard's
   deterministic event order. *)

module Engine = Nest_sim.Engine
module Time = Nest_sim.Time

type policy =
  | Fixed of int
  | Burn of {
      floor : int;
      init : int;
      ceiling : int;
      window : Time.ns;
    }
  | Codel of { target_us : float; interval : Time.ns; ceiling : int }

let fixed bound = Fixed bound

(* [init] defaults to the floor: slow start.  Opening at the ceiling
   would let the first burn window build a ceiling-deep queue whose
   drain time contaminates run-wide completion percentiles — the exact
   failure mode the controller exists to prevent. *)
let burn ?(floor = 1) ?init ?(ceiling = 64) ?(window = Time.ms 100) () =
  let init = match init with Some i -> i | None -> floor in
  Burn { floor; init; ceiling; window }

(* Burn thresholds: halve the limit once the whole error budget is
   burning, grow it once no more than a quarter is. *)
let burn_high = 1.0
let burn_low = 0.25

let codel ?(target_us = 5000.0) ?(interval = Time.ms 100) ?(ceiling = 64) () =
  Codel { target_us; interval; ceiling }

type codel_state = {
  mutable first_above : Time.ns option;
      (* when latency first stayed above target; the deadline for
         entering the dropping state *)
  mutable dropping : bool;
  mutable drop_next : Time.ns;
  mutable drops : int;  (* drops in the current dropping episode *)
}

type t = {
  a_engine : Engine.t;
  a_burn_lbl : Engine.label;
  a_policy : policy;
  a_burn_source : (unit -> float) option;
  mutable a_limit : int;
  a_codel : codel_state;
  mutable a_transitions : int;
}

let validate = function
  | Fixed b -> if b <= 0 then invalid_arg "Admission: fixed bound must be > 0"
  | Burn { floor; init; ceiling; window } ->
    if floor < 1 then invalid_arg "Admission: burn floor must be >= 1";
    if ceiling < floor then
      invalid_arg "Admission: burn ceiling must be >= floor";
    if init < floor || init > ceiling then
      invalid_arg "Admission: burn init must be in [floor, ceiling]";
    if window <= 0 then invalid_arg "Admission: burn window must be > 0"
  | Codel { target_us; interval; ceiling } ->
    if not (target_us > 0.0) then
      invalid_arg "Admission: codel target must be > 0";
    if interval <= 0 then invalid_arg "Admission: codel interval must be > 0";
    if ceiling <= 0 then invalid_arg "Admission: codel ceiling must be > 0"

(* AIMD on the concurrency limit: halve while the protected objective is
   burning more than its whole budget, creep back up one slot per quiet
   window, and hold inside the hysteresis band so an input oscillating
   between "fine" and "merely warm" does not flap the limit. *)
let rec arm_burn t ~floor ~ceiling ~window ~stop ~at =
  if at <= stop then
    Engine.schedule_labeled t.a_engine t.a_burn_lbl ~at (fun () ->
        let b = match t.a_burn_source with Some f -> f () | None -> 0.0 in
        let next =
          if b >= burn_high then Stdlib.max floor (t.a_limit / 2)
          else if b <= burn_low then Stdlib.min ceiling (t.a_limit + 1)
          else t.a_limit
        in
        if next <> t.a_limit then begin
          t.a_limit <- next;
          t.a_transitions <- t.a_transitions + 1
        end;
        arm_burn t ~floor ~ceiling ~window ~stop ~at:(at + window))

let create ~engine ?burn_source ?stop policy =
  validate policy;
  let t =
    {
      a_engine = engine;
      a_burn_lbl = Engine.label engine "admission:burn";
      a_policy = policy;
      a_burn_source = burn_source;
      a_limit =
        (match policy with
        | Fixed b -> b
        | Burn { init; _ } -> init
        | Codel { ceiling; _ } -> ceiling);
      a_codel =
        { first_above = None; dropping = false; drop_next = 0; drops = 0 };
      a_transitions = 0;
    }
  in
  (match policy with
  | Burn { floor; init = _; ceiling; window } ->
    let stop =
      match stop with
      | Some s -> s
      | None -> invalid_arg "Admission: a Burn policy needs ~stop"
    in
    arm_burn t ~floor ~ceiling ~window ~stop ~at:(Engine.now engine + window)
  | Fixed _ | Codel _ -> ());
  t

(* CoDel's sqrt control law: drop spacing shrinks as interval/sqrt(n)
   while the episode lasts. *)
let codel_spacing interval drops =
  let d = Stdlib.max 1 drops in
  Stdlib.max 1
    (int_of_float (float_of_int interval /. Float.sqrt (float_of_int d)))

let decide t ~outstanding =
  match t.a_policy with
  | Fixed _ | Burn _ -> outstanding < t.a_limit
  | Codel { interval; ceiling; _ } ->
    if outstanding >= ceiling then false
    else begin
      let cs = t.a_codel in
      let now = Engine.now t.a_engine in
      if cs.dropping then
        if now >= cs.drop_next then begin
          cs.drops <- cs.drops + 1;
          cs.drop_next <- now + codel_spacing interval cs.drops;
          false
        end
        else true
      else
        match cs.first_above with
        | Some t0 when now >= t0 ->
          (* Latency has been above target for a whole interval: start a
             dropping episode with this arrival. *)
          cs.dropping <- true;
          cs.drops <- 1;
          cs.drop_next <- now + codel_spacing interval 1;
          t.a_transitions <- t.a_transitions + 1;
          false
        | _ -> true
    end

let on_complete t ~latency_us =
  match t.a_policy with
  | Fixed _ | Burn _ -> ()
  | Codel { target_us; interval; _ } ->
    let cs = t.a_codel in
    if latency_us < target_us then begin
      cs.first_above <- None;
      if cs.dropping then begin
        cs.dropping <- false;
        cs.drops <- 0;
        t.a_transitions <- t.a_transitions + 1
      end
    end
    else if cs.first_above = None then
      cs.first_above <- Some (Engine.now t.a_engine + interval)

let on_lost t =
  (* A timeout is a completion that blew every deadline. *)
  match t.a_policy with
  | Fixed _ | Burn _ -> ()
  | Codel _ -> on_complete t ~latency_us:infinity

let limit t = t.a_limit
let transitions t = t.a_transitions
