(* Event labels are ints.  Each engine keeps a label table (string <->
   id, id 0 = unlabeled), and the queue stores an event's id as the
   heap entry's tag beside its bare thunk, so scheduling allocates no
   wrapper record.  Hot callers ({!Exec}) resolve their id once; the
   string-labeled [schedule]/[schedule_at] look it up per call.

   Per-label state lives in arrays indexed by id: the trace-name id of
   each label in the current tracer ([-1] until first traced, refilled
   on [set_tracer]) and the profile's events, host seconds and minor
   words (zero unless profiling). *)

type label = int

let unlabeled = 0

(* Eight unused words at each end of the record: a sharded run gives
   every shard its own engine, written on every event by the one domain
   that pumps it, and the padding keeps those writes off the 64-byte
   cache lines of every other shard's records, whatever lies next to
   this one in the heap (OCaml 5.1 has no [Atomic.make_contended]).
   {!Heap.t} and {!Sharded}'s per-shard records are padded alike. *)
type t = {
  pad0 : int; pad1 : int; pad2 : int; pad3 : int;
  pad4 : int; pad5 : int; pad6 : int; pad7 : int;
  mutable clock : Time.ns;
  queue : (unit -> unit) Heap.t;
  root_rng : Prng.t;
  mutable executed : int;
  metrics : Metrics.t;
  mutable tracer : Trace.t option;
  mutable engine_cat : int;  (* interned "engine" cat of the current tracer *)
  label_ids : (string, int) Hashtbl.t;
  mutable label_names : string array;  (* id -> label; [n_labels] live *)
  mutable n_labels : int;
  mutable trace_names : int array;  (* id -> trace-name id, or -1 *)
  mutable profiling : bool;
  mutable prof_calls : int array;
  mutable prof_secs : float array;
  mutable prof_words : float array;
  mutable prof_clock : (unit -> float) option;  (* None: [Sys.time] *)
  pad8 : int; pad9 : int; pad10 : int; pad11 : int;
  pad12 : int; pad13 : int; pad14 : int; pad15 : int;
}

let create ?(seed = 0x5EEDL) () =
  let t =
    {
      pad0 = 0; pad1 = 0; pad2 = 0; pad3 = 0;
      pad4 = 0; pad5 = 0; pad6 = 0; pad7 = 0;
      clock = 0;
      queue = Heap.create ~dummy:ignore ();
      root_rng = Prng.create seed;
      executed = 0;
      metrics = Metrics.create ();
      tracer = None;
      engine_cat = 0;
      label_ids = Hashtbl.create 16;
      label_names = Array.make 16 "";
      n_labels = 1;
      trace_names = Array.make 16 (-1);
      profiling = false;
      prof_calls = Array.make 16 0;
      prof_secs = Array.make 16 0.0;
      prof_words = Array.make 16 0.0;
      prof_clock = None;
      pad8 = 0; pad9 = 0; pad10 = 0; pad11 = 0;
      pad12 = 0; pad13 = 0; pad14 = 0; pad15 = 0;
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

(* [a] extended to [n] slots filled with [fill]. *)
let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let register t name =
  let id = t.n_labels in
  if id = Array.length t.label_names then begin
    let n = 2 * id in
    t.label_names <- extend t.label_names n "";
    t.trace_names <- extend t.trace_names n (-1);
    t.prof_calls <- extend t.prof_calls n 0;
    t.prof_secs <- extend t.prof_secs n 0.0;
    t.prof_words <- extend t.prof_words n 0.0
  end;
  t.label_names.(id) <- name;
  t.n_labels <- id + 1;
  Hashtbl.add t.label_ids name id;
  id

let label t name =
  if String.length name = 0 then unlabeled
  else
    match Hashtbl.find t.label_ids name with
    | id -> id
    | exception Not_found -> register t name

let set_tracer t tr =
  t.tracer <- tr;
  Array.fill t.trace_names 0 (Array.length t.trace_names) (-1);
  match tr with
  | Some trace -> t.engine_cat <- Trace.intern_cat trace "engine"
  | None -> ()
let tracer t = t.tracer

let trace_instant t ~cat ~name ?arg () =
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.instant tr ~ts:t.clock ~cat ~name ?arg ()

let enable_profiling ?clock t =
  (match clock with Some _ -> t.prof_clock <- clock | None -> ());
  t.profiling <- true

(* [(label, events, v)] for every label that ran, [v] read by [pick],
   largest first. *)
let prof_rows t pick =
  if not t.profiling then []
  else begin
    let rows = ref [] in
    for id = t.n_labels - 1 downto 0 do
      let n = t.prof_calls.(id) in
      if n > 0 then
        let name =
          if id = unlabeled then "<unlabeled>" else t.label_names.(id)
        in
        rows := (name, n, pick id) :: !rows
    done;
    List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a) !rows
  end

let profile t = prof_rows t (fun id -> t.prof_secs.(id))
let alloc_profile t = prof_rows t (fun id -> t.prof_words.(id))

(* [Int.max] rather than [max] on every per-event path: at type int the
   polymorphic [max] still compares through a C call. *)
let schedule_labeled t lbl ~at fn =
  Heap.push t.queue ~prio:(Int.max at t.clock) ~tag:lbl fn

let schedule_at t ?label:name ~at fn =
  let lbl = match name with None -> unlabeled | Some n -> label t n in
  schedule_labeled t lbl ~at fn

let schedule t ?label ~delay fn =
  schedule_at t ?label ~at:(t.clock + Int.max 0 delay) fn

let trace_name t tr lbl =
  let n = t.trace_names.(lbl) in
  if n >= 0 then n
  else begin
    let n = Trace.intern_name tr t.label_names.(lbl) in
    t.trace_names.(lbl) <- n;
    n
  end

(* The unlabeled, untraced, unprofiled path must stay as close to a bare
   [fn ()] as possible: the ≤2%-overhead budget for disabled observability
   is burned here, once per simulated event. *)
let exec t lbl fn at =
  if lbl = unlabeled then fn ()
  else
    match t.tracer with
    | None -> fn ()
    | Some tr ->
      let name = trace_name t tr lbl in
      Trace.record_i tr ~ts:at Trace.Span_begin
        ~cat:t.engine_cat ~name ~arg:"";
      fn ();
      Trace.record_i tr ~ts:t.clock Trace.Span_end
        ~cat:t.engine_cat ~name ~arg:""

(* The default clock is [Sys.time] called directly: an unboxed,
   allocation-free external, where a read through a closure boxes its
   float. *)
let[@inline] prof_time t =
  match t.prof_clock with None -> Sys.time () | Some c -> c ()

(* The clock is read exactly twice per event, and the minor-words
   reads (unboxed, allocation-free) sit inside those two, so the ledger
   holds the event's own words and nothing of the profiler's. *)
let exec_profiled t lbl fn at =
  let t0 = prof_time t in
  let w0 = Gc.minor_words () in
  exec t lbl fn at;
  let w1 = Gc.minor_words () in
  let t1 = prof_time t in
  t.prof_calls.(lbl) <- t.prof_calls.(lbl) + 1;
  t.prof_secs.(lbl) <- t.prof_secs.(lbl) +. (t1 -. t0);
  t.prof_words.(lbl) <- t.prof_words.(lbl) +. (w1 -. w0)

let dispatch t lbl fn at =
  if t.profiling then exec_profiled t lbl fn at else exec t lbl fn at

(* Pops the queue's minimum, due at [at], and runs it. *)
let fire t at =
  let fn = Heap.pop_value t.queue in
  t.clock <- at;
  t.executed <- t.executed + 1;
  dispatch t (Heap.popped_tag t.queue) fn at

let step t =
  let at = Heap.min_prio t.queue in
  if at < 0 then false
  else begin
    fire t at;
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
let run_external t ~at lbl fn =
  let at = Int.max at t.clock in
  t.clock <- at;
  t.executed <- t.executed + 1;
  dispatch t lbl fn at

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
    let continue = ref true in
    while !continue do
      let at = Heap.min_prio t.queue in
      if at >= 0 && at <= horizon then fire t at
      else begin
        continue := false;
        t.clock <- Int.max t.clock horizon
      end
    done

let pending t = Heap.size t.queue
let events_processed t = t.executed
