(* [lbl]/[lbl_epoch]: an optional pre-interned trace-name id for [label],
   valid only while [trace_epoch] still equals [lbl_epoch] (the tracer has
   not been swapped since the id was minted).  Lets the per-event hot path
   skip the intern-pool hash lookup.

   Unlabeled events — the bulk of every run — are carried as a bare
   [Plain] closure: no metadata record, no tracer check at execution
   (an unlabeled event is never bracketed by spans).  The labeled
   variant pays for its record only when a label was supplied. *)
type job =
  | Plain of (unit -> unit)
  | Labeled of { label : string; lbl : int; lbl_epoch : int;
                 fn : unit -> unit }

type prof_slot = { mutable calls : int; mutable wall : float }

type t = {
  mutable clock : Time.ns;
  queue : job Heap.t;
  root_rng : Prng.t;
  mutable executed : int;
  metrics : Metrics.t;
  mutable tracer : Trace.t option;
  mutable engine_cat : int;  (* interned "engine" cat of the current tracer *)
  mutable trace_epoch : int;  (* bumped by [set_tracer]; guards cached ids *)
  mutable prof : (string, prof_slot) Hashtbl.t option;
  mutable prof_clock : unit -> float;
}

let create ?(seed = 0x5EEDL) () =
  let t =
    {
      clock = 0;
      queue = Heap.create ~dummy:(Plain ignore) ();
      root_rng = Prng.create seed;
      executed = 0;
      metrics = Metrics.create ();
      tracer = None;
      engine_cat = 0;
      trace_epoch = 0;
      prof = None;
      prof_clock = Sys.time;
    }
  in
  Metrics.gauge_probe t.metrics "engine.events_processed" (fun () ->
      float_of_int t.executed);
  Metrics.gauge_probe t.metrics "engine.pending" (fun () ->
      float_of_int (Heap.size t.queue));
  t

let now t = t.clock
let rng t = t.root_rng
let metrics t = t.metrics

let set_tracer t tr =
  t.tracer <- tr;
  t.trace_epoch <- t.trace_epoch + 1;
  match tr with
  | Some trace -> t.engine_cat <- Trace.intern_cat trace "engine"
  | None -> ()
let tracer t = t.tracer
let trace_epoch t = t.trace_epoch

let intern_label t label =
  match t.tracer with
  | Some tr when label <> "" -> Trace.intern_name tr label
  | Some _ | None -> -1

let trace_instant t ~cat ~name ?arg () =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.instant tr ~ts:t.clock ~cat ~name ?arg ()

let enable_profiling ?clock t =
  (match clock with Some c -> t.prof_clock <- c | None -> ());
  if t.prof = None then t.prof <- Some (Hashtbl.create 32)

let profile t =
  match t.prof with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun label s acc -> (label, s.calls, s.wall) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

(* [Int.max] rather than [max] on every per-event path: at type int the
   polymorphic [max] still compares through a C call. *)
let schedule_at t ?label ~at fn =
  let at = Int.max at t.clock in
  match label with
  | None | Some "" -> Heap.push t.queue ~prio:at (Plain fn)
  | Some label ->
    Heap.push t.queue ~prio:at
      (Labeled { label; lbl = -1; lbl_epoch = 0; fn })

(* Hot-caller variant (see {!Exec.submit_timed}): the label's trace-name
   id was interned once by the caller and rides along, so tracing this
   event costs two ring writes and no hashing. *)
let schedule_at_interned t ~label ~lbl ~at fn =
  let at = Int.max at t.clock in
  Heap.push t.queue ~prio:at
    (Labeled { label; lbl; lbl_epoch = t.trace_epoch; fn })

let schedule t ?label ~delay fn =
  schedule_at t ?label ~at:(t.clock + Int.max 0 delay) fn

(* The unlabeled, untraced, unprofiled path must stay as close to a bare
   [fn ()] as possible: the ≤2%-overhead budget for disabled observability
   is burned here, once per simulated event. *)
let exec t job at =
  match job with
  | Plain fn -> fn ()
  | Labeled { label; lbl; lbl_epoch; fn } -> (
    match t.tracer with
    | Some tr ->
      let name =
        if lbl >= 0 && lbl_epoch = t.trace_epoch then lbl
        else Trace.intern_name tr label
      in
      Trace.record_i tr ~ts:at Trace.Span_begin
        ~cat:t.engine_cat ~name ~arg:"";
      fn ();
      Trace.record_i tr ~ts:t.clock Trace.Span_end
        ~cat:t.engine_cat ~name ~arg:""
    | None -> fn ())

let prof_charge tbl label ~t0 ~t1 =
  let dt = t1 -. t0 in
  match Hashtbl.find_opt tbl label with
  | Some s ->
    s.calls <- s.calls + 1;
    s.wall <- s.wall +. dt
  | None -> Hashtbl.add tbl label { calls = 1; wall = dt }

let exec_profiled t tbl job at =
  let t0 = t.prof_clock () in
  exec t job at;
  let t1 = t.prof_clock () in
  let label =
    match job with
    | Plain _ -> "<unlabeled>"
    | Labeled { label = ""; _ } -> "<unlabeled>"
    | Labeled { label; _ } -> label
  in
  prof_charge tbl label ~t0 ~t1

let step t =
  let at = Heap.min_prio t.queue in
  if at < 0 then false
  else begin
    let job = Heap.pop_value t.queue in
    t.clock <- at;
    t.executed <- t.executed + 1;
    (match t.prof with
    | None -> exec t job at
    | Some tbl -> exec_profiled t tbl job at);
    true
  end

let next_at t =
  let m = Heap.min_prio t.queue in
  if m < 0 then max_int else m

let advance_to t horizon = if horizon > t.clock then t.clock <- horizon

(* External-event execution (cross-shard mailbox deliveries): behaves
   like popping a queued event at [at] — advances the clock, counts it,
   brackets it with a span when labeled and a tracer is installed — but
   the thunk never sat in this engine's queue.  The conservative shard
   loop guarantees [at >= clock] before calling. *)
let run_external t ~at ?(label = "") fn =
  let at = Int.max at t.clock in
  t.clock <- at;
  t.executed <- t.executed + 1;
  let job =
    if label = "" then Plain fn
    else Labeled { label; lbl = -1; lbl_epoch = 0; fn }
  in
  match t.prof with
  | None -> exec t job at
  | Some tbl -> exec_profiled t tbl job at

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
    let continue = ref true in
    while !continue do
      let at = Heap.min_prio t.queue in
      if at >= 0 && at <= horizon then ignore (step t)
      else begin
        continue := false;
        t.clock <- Int.max t.clock horizon
      end
    done

let pending t = Heap.size t.queue
let events_processed t = t.executed
