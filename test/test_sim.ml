(* Unit + property tests for the simulation engine library. *)

module Engine = Nest_sim.Engine
module Heap = Nest_sim.Heap
module Prng = Nest_sim.Prng
module Dist = Nest_sim.Dist
module Stats = Nest_sim.Stats
module Exec = Nest_sim.Exec
module Cpu_set = Nest_sim.Cpu_set
module Cpu_account = Nest_sim.Cpu_account
module Time = Nest_sim.Time

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order"
    ~count:200
    QCheck.(list small_int)
    (fun prios ->
      let h = Heap.create ~dummy:0 () in
      List.iter (fun p -> Heap.push h ~tag:0 ~prio:p p) prios;
      let rec drain acc =
        match Helpers.heap_pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:"" () in
  List.iter (fun v -> Heap.push h ~tag:0 ~prio:7 v) [ "a"; "b"; "c" ];
  let popped =
    List.init 3 (fun _ ->
        match Helpers.heap_pop h with Some (_, v) -> v | None -> assert false)
  in
  Alcotest.(check (list string)) "insertion order among equal priorities"
    [ "a"; "b"; "c" ] popped

let test_heap_interleaved () =
  let h = Heap.create ~dummy:0 () in
  Heap.push h ~tag:0 ~prio:5 5;
  Heap.push h ~tag:0 ~prio:1 1;
  Alcotest.(check int) "min" 1 (Heap.min_prio h);
  ignore (Helpers.heap_pop h);
  Heap.push h ~tag:0 ~prio:3 3;
  Alcotest.(check int) "min after mix" 3 (Heap.min_prio h);
  Alcotest.(check int) "size" 2 (Heap.size h);
  ignore (Helpers.heap_pop h);
  ignore (Helpers.heap_pop h);
  Alcotest.(check int) "drained" 0 (Heap.size h);
  Alcotest.(check int) "min when empty" (-1) (Heap.min_prio h)

(* ------------------------------------------------------------------ *)
(* The heap as the engine's event queue, against a reference model: the
   pending values grouped by priority, each group in push order, so a
   pop takes the head of their stable sort by priority.  The model
   clamps a push below the last popped priority up to it, as the queue
   does. *)

module Model = struct
  module M = Map.Make (Int)

  type 'a t = { mutable pending : 'a Queue.t M.t; mutable floor : int }

  let create () = { pending = M.empty; floor = 0 }

  let push m ~prio v =
    let prio = Int.max prio m.floor in
    match M.find_opt prio m.pending with
    | Some q -> Queue.push v q
    | None ->
      let q = Queue.create () in
      Queue.push v q;
      m.pending <- M.add prio q m.pending

  let pop m =
    match M.min_binding_opt m.pending with
    | None -> None
    | Some (p, q) ->
      let v = Queue.pop q in
      if Queue.is_empty q then m.pending <- M.remove p m.pending;
      m.floor <- p;
      Some (p, v)
end

(* Each value rides with a tag derived from it, so a tag that strays
   from its value (a cell mixed up) shows as a mismatch. *)
let tag_of v = -v

let push_both q m ~prio v =
  Heap.push q ~tag:(tag_of v) ~prio v;
  Model.push m ~prio v

(* Pops both once; [None] when they disagree. *)
let pop_both q m =
  match (Helpers.heap_pop q, Model.pop m) with
  | None, None -> Some None
  | Some ((_, v) as e), Some e'
    when e = e' && Heap.popped_tag q = tag_of v -> Some (Some e)
  | _ -> None

let rec drain_both q m =
  match pop_both q m with
  | Some None -> true
  | Some (Some _) -> drain_both q m
  | None -> false

let test_queue_matches_model =
  QCheck.Test.make
    ~name:"matches a stable sort by priority"
    ~count:300
    QCheck.(list (int_bound 5000))
    (fun prios ->
      let q = Heap.create ~dummy:0 () in
      List.iteri (fun i p -> Heap.push q ~tag:0 ~prio:p i) prios;
      let rec drain acc =
        match Helpers.heap_pop q with None -> List.rev acc | Some e -> drain (e :: acc)
      in
      drain []
      = List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i p -> (p, i)) prios))

let test_queue_fifo_ties () =
  let q = Heap.create ~dummy:"" () in
  List.iter (fun v -> Heap.push q ~tag:0 ~prio:7 v) [ "a"; "b"; "c" ];
  Heap.push q ~tag:0 ~prio:3 "first";
  let popped =
    List.init 4 (fun _ ->
        match Helpers.heap_pop q with Some (_, v) -> v | None -> assert false)
  in
  Alcotest.(check (list string)) "insertion order among equal priorities"
    [ "first"; "a"; "b"; "c" ] popped

(* The queue's date span: every queued date lies within [span] ns of
   every other one (2^(62 - 20), a key's date bits). *)
let span = 1 lsl 42

let test_queue_far_apart () =
  (* Priorities from one tick to the span's edge, repeated and out of
     order. *)
  let q = Heap.create ~dummy:0 () and m = Model.create () in
  let prios =
    [ 0; 1; 31; 32; 1 lsl 20; (1 lsl 30) + 5; (1 lsl 30) + 5; 3 lsl 30;
      (3 lsl 30) + 7; 7 lsl 30; span - 1; 5; 1 lsl 20 ]
  in
  List.iteri (fun i p -> push_both q m ~prio:p i) prios;
  Alcotest.(check bool) "drains in model order" true (drain_both q m)

let test_queue_span_edge () =
  (* A date at the span's edge above the least queued date is accepted;
     one past it, above or below, raises and leaves the queue as it
     was. *)
  let q = Heap.create ~dummy:0 () and m = Model.create () in
  let lo = 1000 in
  push_both q m ~prio:lo 0;
  push_both q m ~prio:(lo + span - 1) 1;
  push_both q m ~prio:lo 2;
  let refused prio =
    match Heap.push q ~tag:0 ~prio 9 with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "one past the edge above raises" true
    (refused (lo + span));
  Alcotest.(check bool) "one past the edge below raises" true
    (refused (lo - 1));
  Alcotest.(check int) "a refused push queues nothing" 3 (Heap.size q);
  Alcotest.(check bool) "drains in model order" true (drain_both q m);
  (* Once the low dates have gone, the far one anchors the span. *)
  push_both q m ~prio:(lo + span - 1) 3;
  push_both q m ~prio:(lo + (2 * span) - 2) 4;
  Alcotest.(check bool) "a later span drains in model order" true
    (drain_both q m)

(* More than 2^20 pushes, so the sequence counter runs out at least
   twice and the queue renumbers its entries.  A few hundred entries
   stay queued, their dates within four ticks of the last popped one.
   Around each renumber the stream fills the front slot (it drains the
   last popped date, then pushes at it: earlier than everything queued)
   and pushes 64 entries without a pop, alternating that date and the
   next, so equal dates go in on both sides of the renumber while the
   slot holds one.  [seq] mirrors the queue's counter to find the
   renumbers: a renumber leaves it at the largest number of queued
   entries that share a date. *)
let test_queue_renumbers =
  QCheck.Test.make ~name:"renumbering keeps the model's order" ~count:2
    QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Heap.create ~dummy:0 () and m = Model.create () in
      let limit = 1 lsl 20 in
      let pushes = ref 0 and seq = ref 0 and renumbers = ref 0 in
      let windows = ref 0 and ok = ref true in
      let push prio =
        if !seq = limit then begin
          incr renumbers;
          seq :=
            Model.M.fold (fun _ g acc -> Int.max acc (Queue.length g))
              m.Model.pending 0
        end;
        incr seq;
        incr pushes;
        push_both q m ~prio !pushes
      in
      let pop () = if pop_both q m = None then ok := false in
      while !ok && (!renumbers < 2 || !pushes < (2 * limit) + 64) do
        let floor = m.Model.floor in
        if limit - !seq = 32 then begin
          incr windows;
          while !ok && Heap.min_prio q = floor do pop () done;
          push floor;
          for i = 1 to 64 do push (floor + (i land 1)) done
        end
        else if Heap.size q < 64 || (Heap.size q < 512 && Random.State.bool rng)
        then push (floor + Random.State.int rng 4)
        else pop ()
      done;
      !ok && drain_both q m && !renumbers >= 2 && !windows = !renumbers)

(* A renumber works in the queue's own arrays: past 2^21 pushes on a
   queue holding 1000 entries (two renumbers), the words allocated are
   the two [Gc.minor_words] readings' boxes, not the O(n) copies of a
   rebase that builds new arrays (about 4000 words a renumber). *)
let test_queue_renumber_alloc () =
  let q = Heap.create ~dummy:0 () in
  for i = 0 to 999 do
    Heap.push q ~tag:0 ~prio:(i land 3) i
  done;
  let pushes = (2 lsl 20) + 1000 in
  let before = Gc.minor_words () in
  for i = 1 to pushes do
    let p = Heap.min_prio q in
    ignore (Heap.pop_value q : int);
    Heap.push q ~tag:0 ~prio:(p + (i land 3)) i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "the queue keeps its size" 1000 (Heap.size q);
  Alcotest.(check bool)
    (Printf.sprintf "minor words over two renumbers %.0f <= 16" words)
    true (words <= 16.0)

let test_queue_past_clamp () =
  (* The engine never schedules below its clock, but the queue still
     clamps a push below the last popped priority up to it. *)
  let q = Heap.create ~dummy:"" () in
  Heap.push q ~tag:0 ~prio:100 "a";
  Alcotest.(check int) "min" 100 (Heap.min_prio q);
  ignore (Helpers.heap_pop q);
  Heap.push q ~tag:0 ~prio:5 "late";
  (match Helpers.heap_pop q with
  | Some (p, v) ->
    Alcotest.(check string) "late entry pops" "late" v;
    Alcotest.(check int) "clamped to the last popped priority" 100 p
  | None -> Alcotest.fail "expected an entry");
  Alcotest.(check int) "empty" 0 (Heap.size q)

let test_queue_interleaved_monotone =
  (* The engine's actual pattern: pushes always at or above the last
     popped priority. *)
  QCheck.Test.make ~name:"monotone interleaving matches the model"
    ~count:200
    QCheck.(list (pair bool (int_bound 100_000)))
    (fun ops ->
      let q = Heap.create ~dummy:0 () and m = Model.create () in
      let floor = ref 0 and next = ref 0 in
      List.for_all
        (fun (is_pop, delta) ->
          if is_pop then (
            match pop_both q m with
            | Some (Some (p, _)) ->
              floor := p;
              true
            | Some None -> true
            | None -> false)
          else begin
            incr next;
            push_both q m ~prio:(!floor + delta) !next;
            true
          end)
        ops
      && drain_both q m)

let test_queue_dense_ties =
  (* Priorities within 64 ticks, so many entries share one: some pushed
     up front, some at the current minimum while it is being drained,
     some above it. *)
  QCheck.Test.make ~name:"dense ties match the model" ~count:300
    QCheck.(pair (list (int_bound 63)) (list (pair (int_bound 2) (int_bound 63))))
    (fun (initial, ops) ->
      let q = Heap.create ~dummy:0 () and m = Model.create () in
      let next = ref 0 in
      let push prio =
        incr next;
        push_both q m ~prio !next
      in
      List.iter push initial;
      let floor = ref 0 in
      List.for_all
        (fun (kind, delta) ->
          match kind with
          | 0 -> (
            match pop_both q m with
            | Some (Some (p, _)) ->
              floor := p;
              true
            | Some None -> true
            | None -> false)
          | 1 ->
            let at = Heap.min_prio q in
            push (if at < 0 then !floor else at);
            true
          | _ ->
            push (!floor + delta);
            true)
        ops
      && drain_both q m)

let test_queue_prefix_ties =
  (* An ascending prefix up to priority 3, then pushes at 0..3 mixed
     with pops: equal priorities go in on both sides of pops and must
     still come out by sequence. *)
  QCheck.Test.make ~name:"prefix ties match the model"
    ~count:300
    QCheck.(list (pair bool (int_bound 3)))
    (fun ops ->
      let q = Heap.create ~dummy:0 () and m = Model.create () in
      let next = ref 0 in
      let push prio =
        incr next;
        push_both q m ~prio !next
      in
      List.iter push [ 0; 1; 1; 2; 3 ];
      List.for_all
        (fun (is_pop, p) ->
          if is_pop then pop_both q m <> None
          else begin
            push p;
            true
          end)
        ops
      && drain_both q m)

let test_queue_bounded () =
  (* A queue that never empties (every pop follows a push at a later
     priority) recycles its cells instead of growing. *)
  let q = Heap.create ~dummy:0 () in
  Heap.push q ~tag:0 ~prio:0 0;
  for i = 1 to 100_000 do
    Heap.push q ~tag:0 ~prio:i i;
    ignore (Heap.pop_value q : int)
  done;
  let words = Obj.reachable_words (Obj.repr q) in
  Alcotest.(check bool)
    (Printf.sprintf "queue of 1 holds %d words <= 4096" words)
    true (words <= 4096)

let test_queue_same_tick_alloc () =
  (* One tick holding 4096 entries (every fleet node's window tick lands
     on one): draining it must cost O(1) words per pop.  A later entry
     sits below the tick, and half the entries are pushed while the tick
     is draining. *)
  let n = 4096 in
  let q = Heap.create ~dummy:0 () in
  Heap.push q ~tag:0 ~prio:2000 0;
  for i = 1 to n / 2 do
    Heap.push q ~tag:0 ~prio:1000 i
  done;
  let before = Gc.minor_words () in
  let ok = ref true in
  for i = 1 to n do
    (match Helpers.heap_pop q with
    | Some (1000, v) -> if v <> i then ok := false
    | Some _ | None -> ok := false);
    if i <= n / 2 then Heap.push q ~tag:0 ~prio:1000 ((n / 2) + i)
  done;
  let per_pop = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) "FIFO order on one tick" true !ok;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per pop %.1f <= 64" per_pop)
    true (per_pop <= 64.0)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := 30 :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "timestamp order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> incr fired))
    [ 5; 15; 25 ];
  Engine.run ~until:16 e;
  Alcotest.(check int) "two events within horizon" 2 !fired;
  Alcotest.(check int) "clock parked at horizon" 16 (Engine.now e);
  Alcotest.(check int) "one still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 3 !fired

let test_engine_cascade () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec step n () =
    incr count;
    if n > 0 then Engine.schedule e ~delay:1 (step (n - 1))
  in
  Engine.schedule e ~delay:0 (step 99);
  Engine.run e;
  Alcotest.(check int) "cascaded events" 100 !count;
  Alcotest.(check int) "events processed" 100 (Engine.events_processed e)

let test_engine_past_schedule () =
  let e = Engine.create () in
  let at = ref (-1) in
  Engine.schedule e ~delay:10 (fun () ->
      Engine.schedule_at e ~at:3 (fun () -> at := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "past dates fire now, never rewind the clock" 10 !at

let test_engine_event_alloc () =
  (* Eight self-rescheduling chains with 0.5-20.5 us delays beside one
     event 5 s out: the engine's steady state.  Minor words per event
     are exact, so the bound holds on any host.  Nothing allocates (0.0
     measured): the queue holds the bare thunk and its label id as an
     int, so the odd chains, labeled as an [Exec]'s events are, cost
     the same.  One block per event (2 words at least) fails. *)
  let e = Engine.create () in
  let lbl = Engine.label e "chain" in
  let budget = ref 0 in
  let chains =
    Array.init 8 (fun i ->
        let delay = 500 + (i * 20_000 / 7) in
        let rec fire () =
          if !budget > 0 then begin
            decr budget;
            if i land 1 = 0 then Engine.schedule e ~delay fire
            else Engine.schedule_labeled e lbl ~at:(Engine.now e + delay) fire
          end
        in
        fire)
  in
  Engine.schedule e ~delay:(Time.sec 5) ignore;
  let run n =
    budget := n;
    Array.iter (fun f -> Engine.schedule e ~delay:0 f) chains;
    Engine.run ~until:(Engine.now e + Time.sec 1) e
  in
  run 10_000;
  let before = Gc.minor_words () and events = Engine.events_processed e in
  run 100_000;
  let per_event =
    (Gc.minor_words () -. before)
    /. float_of_int (Engine.events_processed e - events)
  in
  Alcotest.(check int) "the far event is still pending" 1 (Engine.pending e);
  Alcotest.(check bool)
    (Printf.sprintf "minor words per event %.1f <= 1" per_event)
    true (per_event <= 1.0);
  (* Second input: 1000 events scheduled at ascending delays into a
     fresh engine, then drained.  The count includes the schedule calls
     and the queue's first, minor-heap arrays (0.4 words per event
     measured). *)
  let e = Engine.create () in
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    Engine.schedule e ~delay:i (fun () -> ())
  done;
  Engine.run e;
  let per_event = (Gc.minor_words () -. before) /. 1000.0 in
  Alcotest.(check int) "ascending: every event ran once" 1000
    (Engine.events_processed e);
  Alcotest.(check bool)
    (Printf.sprintf "ascending: minor words per event %.1f <= 1" per_event)
    true (per_event <= 1.0)

(* ------------------------------------------------------------------ *)
(* Prng / Dist *)

let test_prng_determinism () =
  let a = Prng.create 99L and b = Prng.create 99L in
  let xs = List.init 50 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys)

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let child = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.next_int64 child) in
  let ys = List.init 20 (fun _ -> Prng.next_int64 a) in
  Alcotest.(check bool) "split stream differs from parent" true (xs <> ys)

(* splitmix64's published outputs for seed 0 (the reference
   implementation's first three draws); [float] is the first draw's 53
   high bits over 2^53. *)
let test_prng_reference_stream () =
  let r = Prng.create 0L in
  List.iter
    (fun want ->
      Alcotest.(check string) "splitmix64 seed 0"
        (Printf.sprintf "%016Lx" want)
        (Printf.sprintf "%016Lx" (Prng.next_int64 r)))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ];
  Alcotest.(check (float 0.0)) "float is the first draw's 53 high bits"
    (Int64.to_float (Int64.shift_right_logical 0xe220a8397b1dcdafL 11)
     /. 9007199254740992.0)
    (Prng.float (Prng.create 0L));
  Alcotest.(check int) "bits53 is the same 53 bits"
    (Int64.to_int (Int64.shift_right_logical 0xe220a8397b1dcdafL 11))
    (Prng.bits53 (Prng.create 0L))

(* Minor words per draw, exact on one domain.  The state is unboxed
   bytes, so [int] and [bits53] allocate nothing; the float draws are
   inlined into their caller, so the float they return is never boxed
   either.  Under the dev profile modules compile -opaque: nothing
   inlines across modules and each float draw boxes its result (the
   per-profile pins below). *)
let test_prng_draws_allocate_nothing () =
  let r = Prng.create 5L in
  let n = 10_000 in
  let sink = ref 0 and fsink = Float.Array.make 1 0.0 in
  let per_draw f =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let draws =
    [ ("Prng.int", 0.0, fun () -> sink := !sink + Prng.int r 1000);
      ("Prng.bits53", 0.0, fun () -> sink := !sink lxor Prng.bits53 r);
      ("Prng.float", 2.0, fun () -> Float.Array.set fsink 0 (Prng.float r));
      ("Dist.exponential", 2.0,
        fun () -> Float.Array.set fsink 0 (Dist.exponential r ~mean:3.0));
      ("Dist.lognormal_mean_cv", 2.0,
        fun () ->
          Float.Array.set fsink 0 (Dist.lognormal_mean_cv r ~mean:3.0 ~cv:0.5))
    ]
  in
  Alcotest.(check (list (pair string (float 0.0)))) "minor words per draw"
    (List.map (fun (name, dev, _) -> (name, Helpers.per_profile ~release:0.0 ~dev)) draws)
    (List.map (fun (name, _, f) -> (name, per_draw f)) draws)

let test_prng_float_range =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500
    QCheck.(int64)
    (fun seed ->
      let r = Prng.create seed in
      let x = Prng.float r in
      x >= 0.0 && x < 1.0)

let test_prng_int_range =
  QCheck.Test.make ~name:"Prng.int in [0,bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Prng.create seed in
      let v = Prng.int r bound in
      v >= 0 && v < bound)

let mean_of f n rng =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. f rng
  done;
  !acc /. float_of_int n

let test_dist_exponential_mean () =
  let rng = Prng.create 1L in
  let m = mean_of (fun r -> Dist.exponential r ~mean:50.0) 20_000 rng in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean ~50 (got %.2f)" m)
    true
    (abs_float (m -. 50.0) < 2.5)

let test_dist_lognormal_mean_cv () =
  let rng = Prng.create 2L in
  let samples =
    List.init 30_000 (fun _ -> Dist.lognormal_mean_cv rng ~mean:100.0 ~cv:0.5)
  in
  let s = Stats.create () in
  List.iter (Stats.add s) samples;
  Alcotest.(check bool)
    (Printf.sprintf "mean ~100 (got %.2f)" (Stats.mean s))
    true
    (abs_float (Stats.mean s -. 100.0) < 3.0);
  let cv = Stats.stddev s /. Stats.mean s in
  Alcotest.(check bool)
    (Printf.sprintf "cv ~0.5 (got %.3f)" cv)
    true
    (abs_float (cv -. 0.5) < 0.06)

let test_dist_bounded_pareto =
  QCheck.Test.make ~name:"bounded pareto stays within bounds" ~count:500
    QCheck.(int64)
    (fun seed ->
      let r = Prng.create seed in
      let x = Dist.bounded_pareto r ~shape:1.2 ~lo:2.0 ~hi:64.0 in
      x >= 2.0 && x <= 64.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_against_oracle =
  QCheck.Test.make ~name:"stats mean/stddev match direct computation"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 2 60) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      abs_float (Stats.mean s -. mean) < 1e-6
      && abs_float ((Stats.stddev s ** 2.0) -. var) < 1e-3)

let test_stats_percentiles () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.; 20.; 30.; 40.; 50. ];
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p50" 30.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p25 interpolates" 20.0
    (Stats.percentile s 25.0)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 2.5; 9.5; 11.0; -1.0 ];
  let counts = Stats.Histogram.counts h in
  Alcotest.(check int) "counts hold everything (clamped)" 6
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "first bin has 0.5, 1.5 and clamped -1.0" 3 counts.(0);
  Alcotest.(check int) "last bin has 9.5 and clamped 11.0" 2 counts.(4);
  let lo, hi = Stats.Histogram.bin_bounds h 1 in
  Alcotest.(check (float 1e-9)) "bin 1 lo" 2.0 lo;
  Alcotest.(check (float 1e-9)) "bin 1 hi" 4.0 hi

(* ------------------------------------------------------------------ *)
(* Exec / Cpu_set / Cpu_account *)

let test_exec_serializes () =
  let e = Engine.create () in
  let x = Exec.create e ~name:"w" in
  let finished = ref [] in
  Exec.submit x ~cost:100 (fun () -> finished := (1, Engine.now e) :: !finished);
  Exec.submit x ~cost:50 (fun () -> finished := (2, Engine.now e) :: !finished);
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "FIFO with accumulated service"
    [ (1, 100); (2, 150) ]
    (List.rev !finished)

let test_exec_width_parallel () =
  let e = Engine.create () in
  let x = Exec.create ~width:2 e ~name:"wide" in
  let done_at = ref [] in
  for _ = 1 to 2 do
    Exec.submit x ~cost:100 (fun () -> done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "two slots run in parallel" [ 100; 100 ]
    !done_at

let test_exec_accounting () =
  let e = Engine.create () in
  let acct = Cpu_account.create () in
  let x =
    Exec.create ~account:(acct, "vm1", Cpu_account.Soft)
      ~also:[ (acct, "host", Cpu_account.Guest) ]
      e ~name:"acc"
  in
  Exec.submit x ~cost:500 (fun () -> ());
  Exec.submit x ~cost:300 (fun () -> ());
  Engine.run e;
  Alcotest.(check int) "primary soft" 800 (Cpu_account.get acct ~entity:"vm1" Cpu_account.Soft);
  Alcotest.(check int) "secondary guest gets all" 800
    (Cpu_account.get acct ~entity:"host" Cpu_account.Guest);
  Alcotest.(check int) "entity total" 800
    (Cpu_account.entity_total acct ~entity:"vm1")

(* An execution context resolves its account rows at its first charge
   and keeps them: an entity is listed only once something has been
   charged to it, and later charges add to the same row. *)
let test_exec_accounting_across_reset () =
  let e = Engine.create () in
  let acct = Cpu_account.create () in
  let x =
    Exec.create ~account:(acct, "vm1", Cpu_account.Soft)
      ~also:[ (acct, "host", Cpu_account.Guest) ]
      e ~name:"acc"
  in
  Alcotest.(check (list string)) "nothing charged yet" []
    (Cpu_account.entities acct);
  Exec.submit x ~cost:500 (fun () -> ());
  Engine.run e;
  Alcotest.(check (list string)) "charged" [ "host"; "vm1" ]
    (Cpu_account.entities acct);
  Exec.submit x ~cost:70 (fun () -> ());
  Engine.run e;
  Alcotest.(check (list string)) "listed once" [ "host"; "vm1" ]
    (Cpu_account.entities acct);
  Alcotest.(check int) "primary row accumulates" 570
    (Cpu_account.get acct ~entity:"vm1" Cpu_account.Soft);
  Alcotest.(check int) "secondary too" 570
    (Cpu_account.get acct ~entity:"host" Cpu_account.Guest)

let test_cpuset_caps_parallelism () =
  let e = Engine.create () in
  let set = Cpu_set.create ~cores:2 in
  (* Three independent width-1 contexts on a 2-core machine. *)
  let xs = List.init 3 (fun i -> Exec.create ~cpus:set e ~name:(string_of_int i)) in
  let done_at = ref [] in
  List.iter
    (fun x -> Exec.submit x ~cost:100 (fun () -> done_at := Engine.now e :: !done_at))
    xs;
  Engine.run e;
  Alcotest.(check (list int)) "third context waits for a core"
    [ 100; 100; 200 ]
    (List.sort compare !done_at)

let test_cpuset_affinity_no_false_contention () =
  let e = Engine.create () in
  let set = Cpu_set.create ~cores:2 in
  let busy = Exec.create ~cpus:set e ~name:"busy" in
  (* Saturate one context with queued work... *)
  for _ = 1 to 10 do
    Exec.submit busy ~cost:100 (fun () -> ())
  done;
  (* ...the other context must still run immediately on the second core. *)
  let other = Exec.create ~cpus:set e ~name:"other" in
  let at = ref (-1) in
  Exec.submit other ~cost:50 (fun () -> at := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "no false contention from queued work" 50 !at

(* [Exec.charge] books exactly what [Exec.submit] books and schedules
   nothing.  Both runs drive a width-2 context that shares a 2-core set
   with a second context; the first charges every third step instead of
   submitting it.  Each step records the submit's finish date ([None]
   where the step charged) and the context's [busy_until]. *)
let exec_steps ~charged =
  let e = Engine.create () in
  let set = Cpu_set.create ~cores:2 in
  let acct = Cpu_account.create () in
  let x =
    Exec.create ~account:(acct, "vm1", Cpu_account.Soft)
      ~also:[ (acct, "host", Cpu_account.Guest) ]
      ~width:2 ~cpus:set e ~name:"x"
  in
  let other = Exec.create ~cpus:set e ~name:"other" in
  let rng = Prng.create 7L in
  let steps =
    List.init 200 (fun i ->
        Engine.run ~until:(i * 60) e;
        let cost = 20 + Prng.int rng 200 in
        let finish =
          if charged i then begin
            let pending = Engine.pending e in
            Exec.charge x ~cost;
            Alcotest.(check int) "charge schedules nothing" pending
              (Engine.pending e);
            None
          end
          else Some (Exec.submit_timed x ~cost ignore)
        in
        if i mod 4 = 0 then Exec.submit other ~cost:(Prng.int rng 150) ignore;
        (finish, Exec.busy_until x))
  in
  Engine.run e;
  let totals =
    List.map
      (fun (entity, cat) -> Cpu_account.get acct ~entity cat)
      [ ("vm1", Cpu_account.Soft); ("host", Cpu_account.Guest) ]
  in
  (steps, totals)

let test_exec_charge_books_like_submit () =
  let charged i = i mod 3 = 1 in
  let steps, totals = exec_steps ~charged in
  let all_steps, all_totals = exec_steps ~charged:(fun _ -> false) in
  let expected =
    List.mapi
      (fun i (finish, busy) -> ((if charged i then None else finish), busy))
      all_steps
  in
  Alcotest.(check (list (pair (option int) int)))
    "finish dates and busy_until" expected steps;
  Alcotest.(check (list int)) "account totals" all_totals totals

let test_cpu_account_reset_snapshot () =
  let acct = Cpu_account.create () in
  let charge entity = Cpu_account.charge_handle (Cpu_account.handle acct ~entity) in
  charge "b" Cpu_account.Sys 200;
  charge "a" Cpu_account.Usr 100;
  Alcotest.(check (list string)) "entities sorted" [ "a"; "b" ]
    (Cpu_account.entities acct);
  let snap = Cpu_account.snapshot acct in
  Alcotest.(check int) "snapshot rows" 2 (List.length snap);
  Alcotest.(check int) "every category in a row" 5
    (List.length (List.assoc "a" snap));
  Alcotest.(check int) "charged cell" 200
    (List.assoc Cpu_account.Sys (List.assoc "b" snap))

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "42ns" (s 42);
  Alcotest.(check string) "us" "1.50us" (s 1500);
  Alcotest.(check string) "ms" "2.50ms" (s 2_500_000);
  Alcotest.(check string) "s" "1.500s" (s 1_500_000_000)

(* The primitive [Printf]'s ["%.6f"] ends in: the bytes the fleet's
   digest printed for a latency before it was written as digits. *)
external format_float : string -> float -> string = "caml_format_float"

let with_buffer add t =
  let b = Buffer.create 32 in
  add b t;
  Buffer.contents b

(* Both writers against the printers they replace: [buffer_add_us] is
   exact below 2^42 ns in magnitude, [buffer_add_ns] on every int. *)
let check_time_writers t =
  Alcotest.(check string)
    (Printf.sprintf "ns %d" t) (string_of_int t)
    (with_buffer Time.buffer_add_ns t);
  Alcotest.(check string)
    (Printf.sprintf "us %d" t)
    (format_float "%.6f" (Time.to_us_f t))
    (with_buffer Time.buffer_add_us t)

let test_time_writers_edges () =
  let powers = List.init 13 (fun k -> int_of_float (10. ** float_of_int k)) in
  let edges =
    [ 0; 1; 999; 1000; 1001; 1 lsl 31; (1 lsl 42) - 1 ]
    @ List.concat_map (fun p -> [ p - 1; p; p + 1 ]) powers
  in
  let rng = Random.State.make [| 42 |] in
  let random = List.init 200 (fun _ -> Random.State.full_int rng (1 lsl 42)) in
  List.iter
    (fun t ->
      check_time_writers t;
      check_time_writers (-t))
    (edges @ random);
  List.iter
    (fun t ->
      Alcotest.(check string) "ns extremes" (string_of_int t)
        (with_buffer Time.buffer_add_ns t))
    [ max_int; min_int; min_int + 1 ]

let test_time_writers_random =
  let gen =
    QCheck.Gen.(
      map3
        (fun x bits neg ->
          let t = x land ((1 lsl bits) - 1) in
          if neg then -t else t)
        int (int_range 0 42) bool)
  in
  QCheck.Test.make ~count:2000 ~name:"writers print like format_float"
    (QCheck.make ~print:string_of_int gen) (fun t ->
      String.equal (string_of_int t) (with_buffer Time.buffer_add_ns t)
      && String.equal
           (format_float "%.6f" (Time.to_us_f t))
           (with_buffer Time.buffer_add_us t))

let () =
  Alcotest.run "sim"
    [ ( "heap",
        [ qtest test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved ] );
      ( "queue",
        [ qtest test_queue_matches_model;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "far-apart priorities" `Quick test_queue_far_apart;
          Alcotest.test_case "span edge" `Quick test_queue_span_edge;
          qtest test_queue_renumbers;
          Alcotest.test_case "renumbering allocates nothing" `Quick
            test_queue_renumber_alloc;
          Alcotest.test_case "past clamp" `Quick test_queue_past_clamp;
          qtest test_queue_interleaved_monotone;
          qtest test_queue_dense_ties;
          qtest test_queue_prefix_ties;
          Alcotest.test_case "stays bounded under churn" `Quick
            test_queue_bounded;
          Alcotest.test_case "same-tick drain allocation" `Quick
            test_queue_same_tick_alloc ] );
      ( "engine",
        [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "cascade" `Quick test_engine_cascade;
          Alcotest.test_case "past schedule" `Quick test_engine_past_schedule;
          Alcotest.test_case "event allocation" `Quick test_engine_event_alloc ]
      );
      ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "splitmix64 reference" `Quick
            test_prng_reference_stream;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_prng_draws_allocate_nothing;
          qtest test_prng_float_range;
          qtest test_prng_int_range ] );
      ( "dist",
        [ Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "lognormal mean/cv" `Quick test_dist_lognormal_mean_cv;
          qtest test_dist_bounded_pareto ] );
      ( "stats",
        [ qtest test_stats_against_oracle;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "exec",
        [ Alcotest.test_case "serializes" `Quick test_exec_serializes;
          Alcotest.test_case "width parallel" `Quick test_exec_width_parallel;
          Alcotest.test_case "accounting" `Quick test_exec_accounting;
          Alcotest.test_case "accounting across reset" `Quick
            test_exec_accounting_across_reset;
          Alcotest.test_case "charge books like submit" `Quick
            test_exec_charge_books_like_submit;
          Alcotest.test_case "cpuset caps" `Quick test_cpuset_caps_parallelism;
          Alcotest.test_case "cpuset affinity" `Quick
            test_cpuset_affinity_no_false_contention;
          Alcotest.test_case "account snapshot" `Quick
            test_cpu_account_reset_snapshot;
          Alcotest.test_case "time pp" `Quick test_time_pp ] );
      ( "time",
        [ Alcotest.test_case "writers at the edges" `Quick
            test_time_writers_edges;
          qtest test_time_writers_random ] ) ]
