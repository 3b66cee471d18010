(* PR-9 load-generation subsystem: arrival processes, heavy-tailed
   sizes, open-loop admission/accounting, and the fleet scenario's
   shard/domain determinism.  The open-vs-closed test is the point of
   the subsystem: the same stalled server must inflate the open-loop
   percentiles while the closed loop's completed-RTT histogram sleeps
   through the outage. *)

module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Prng = Nest_sim.Prng
module Hdr = Nest_sim.Hdr
module Arrival = Nest_loadgen.Arrival
module Size_dist = Nest_loadgen.Size_dist
module Loadgen = Nest_loadgen.Loadgen
module Admission = Nest_loadgen.Admission

let take_offsets a n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let t = Arrival.next a in
      if t = Arrival.ended then List.rev acc else go (t :: acc) (k - 1)
  in
  go [] n

(* --- arrival processes -------------------------------------------- *)

let test_constant () =
  let a = Arrival.constant ~rate_per_s:1000.0 in
  Alcotest.(check (list int))
    "1 kHz arrivals sit on exact-ms marks"
    [ Time.ms 1; Time.ms 2; Time.ms 3; Time.ms 4 ]
    (take_offsets a 4);
  Alcotest.check_raises "non-positive rate rejected"
    (Invalid_argument "Arrival.constant: rate must be > 0") (fun () ->
      ignore (Arrival.constant ~rate_per_s:0.0))

let test_tiny_rate_ends () =
  (* A mean inter-arrival past max_int ns: the first offsets that no
     longer fit in an int end the stream instead of wrapping negative. *)
  let c = Arrival.constant ~rate_per_s:1e-10 in
  Alcotest.(check (list int)) "constant: no representable offset" []
    (take_offsets c 3);
  let c = Arrival.constant ~rate_per_s:1e-9 in
  Alcotest.(check (list int)) "constant: the offsets below 2^62, then none"
    [ 1_000_000_000_000_000_000; 2_000_000_000_000_000_000;
      3_000_000_000_000_000_000; 4_000_000_000_000_000_000 ]
    (take_offsets c 10);
  let p = Arrival.poisson ~rng:(Prng.create 5L) ~rate_per_s:1e-9 in
  let xs = take_offsets p 100 in
  Alcotest.(check bool) "poisson: ends within a few draws" true
    (List.length xs < 10);
  Alcotest.(check bool) "poisson: every offset non-negative" true
    (List.for_all (fun t -> t >= 0) xs);
  Alcotest.(check int) "poisson: stays ended" Arrival.ended (Arrival.next p);
  List.iter
    (fun r ->
      Alcotest.check_raises
        (Printf.sprintf "rate %g rejected" r)
        (Invalid_argument "Arrival.poisson: rate must be finite") (fun () ->
          ignore (Arrival.poisson ~rng:(Prng.create 1L) ~rate_per_s:r)))
    [ Float.nan; Float.infinity ]

let test_poisson_deterministic () =
  let offsets seed =
    take_offsets (Arrival.poisson ~rng:(Prng.create seed) ~rate_per_s:5000.0) 500
  in
  Alcotest.(check (list int))
    "same seed, same schedule" (offsets 42L) (offsets 42L);
  Alcotest.(check bool)
    "different seed, different schedule" false
    (offsets 42L = offsets 43L);
  let xs = offsets 42L in
  Alcotest.(check bool) "monotone non-decreasing" true
    (List.for_all2 ( <= ) (0 :: xs) (xs @ [ max_int ]));
  (* Mean inter-arrival of a 5 kHz Poisson process is 200 µs; 500 draws
     put the sample mean within a few percent. *)
  let mean =
    float_of_int (List.nth xs 499) /. 500.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean inter-arrival ~200us (got %.1fus)" (mean /. 1e3))
    true
    (mean > 150e3 && mean < 250e3);
  (* The process writes [Dist.exponential]'s draw out in place: its
     offsets are the rounded running sums of those draws, bit for bit. *)
  let rng = Prng.create 42L and sum = ref 0.0 in
  let reference =
    List.init 500 (fun _ ->
        sum := !sum +. Nest_sim.Dist.exponential rng ~mean:200_000.0;
        int_of_float (Float.round !sum))
  in
  Alcotest.(check (list int)) "the gaps are Dist.exponential's" reference xs

(* --- size distributions ------------------------------------------- *)

let test_sizes () =
  let rng = Prng.create 11L in
  let pareto = Size_dist.Pareto { shape = 1.2; lo = 64; hi = 1400 } in
  let draws = List.init 2000 (fun _ -> Size_dist.draw pareto rng) in
  Alcotest.(check bool) "bounded pareto stays in [lo, hi]" true
    (List.for_all (fun s -> s >= 64 && s <= 1400) draws);
  Alcotest.(check bool) "heavy tail reaches past 4x the floor" true
    (List.exists (fun s -> s > 256) draws);
  let rng' = Prng.create 11L in
  Alcotest.(check (list int)) "the draws are Dist.bounded_pareto's, truncated"
    (List.init 2000 (fun _ ->
         let v = Nest_sim.Dist.bounded_pareto rng' ~shape:1.2 ~lo:64.0 ~hi:1400.0 in
         Int.max 64 (Int.min 1400 (int_of_float v))))
    draws;
  Alcotest.(check int) "fixed is fixed" 512
    (Size_dist.draw (Size_dist.Fixed 512) rng);
  Alcotest.check_raises "inverted uniform bounds rejected"
    (Invalid_argument "Size_dist.draw: Uniform needs 1 <= lo <= hi") (fun () ->
      ignore (Size_dist.draw (Size_dist.Uniform { lo = 9; hi = 3 }) rng))

(* --- open-loop accounting ----------------------------------------- *)

(* Arrivals at 1 ms spacing into a 4-slot admission bound, against a
   server that never answers: slots are only reclaimed by the 20 ms
   timeout, so the generator must shed most arrivals, lose every
   admitted one, and the books must balance exactly.  (99, not 100: an
   arrival landing exactly on [stop] is never scheduled.) *)
let test_shed_and_lost () =
  let engine = Engine.create () in
  let start = Time.ms 10 and stop = Time.ms 110 in
  let g =
    Loadgen.create ~engine
      ~arrival:(Arrival.constant ~rate_per_s:1000.0)
      ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 1L)
      ~admission:(Admission.fixed 4)
      ~timeout:(Time.ms 20)
      ~dispatch:(fun ~seq:_ ~size:_ -> ())
      ~start ~stop ()
  in
  Engine.run engine;
  let c = Loadgen.counts g in
  Alcotest.(check int) "every scheduled arrival fired" 99 c.Loadgen.offered;
  Alcotest.(check int) "offered = admitted + shed" c.Loadgen.offered
    (c.Loadgen.admitted + c.Loadgen.shed);
  Alcotest.(check int) "admitted = lost + completed (drained)"
    c.Loadgen.admitted
    (c.Loadgen.lost + c.Loadgen.completed);
  Alcotest.(check int) "nothing completed" 0 c.Loadgen.completed;
  Alcotest.(check bool) "bound actually shed" true (c.Loadgen.shed > 0);
  Alcotest.(check bool) "timeouts actually reclaimed slots" true
    (c.Loadgen.lost >= 4)

let test_all_completed () =
  let engine = Engine.create () in
  let g = ref None in
  let gen =
    Loadgen.create ~engine
      ~arrival:(Arrival.constant ~rate_per_s:2000.0)
      ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 2L)
      ~dispatch:(fun ~seq ~size:_ ->
        Engine.schedule engine ~delay:(Time.us 100) (fun () ->
            Loadgen.complete (Option.get !g) ~seq))
      ~start:(Time.ms 1) ~stop:(Time.ms 51) ()
  in
  g := Some gen;
  Engine.run engine;
  let c = Loadgen.counts gen in
  Alcotest.(check int) "all offered" 99 c.Loadgen.offered;
  Alcotest.(check int) "all completed" 99 c.Loadgen.completed;
  Alcotest.(check int) "nothing shed" 0 c.Loadgen.shed;
  Alcotest.(check int) "nothing lost" 0 c.Loadgen.lost;
  (* Every reply takes the dispatch's 100 µs, one request per 500 µs. *)
  let records = ref 0 and last = ref min_int and all_100us = ref true in
  Loadgen.iter_completions gen (fun at latency ->
      incr records;
      if at <= !last || latency <> Time.us 100 then all_100us := false;
      last := at);
  Alcotest.(check int) "one completion record per request" 99 !records;
  Alcotest.(check bool) "records in order, 100 us each" true !all_100us;
  (* Duplicate and never-issued completions must be ignored. *)
  Loadgen.complete gen ~seq:1;
  Loadgen.complete gen ~seq:100000;
  Alcotest.(check int) "stale completions ignored" 99
    (Loadgen.counts gen).Loadgen.completed

(* --- one deadline timer against per-request timeouts ---------------- *)

(* A generator with one timeout event per admitted request, scheduled
   right after the dispatch: the reference the single deadline timer
   must reproduce.  It shares only [Arrival] and
   [Admission] with [Loadgen]. *)
module Per_request = struct
  type t = {
    engine : Engine.t;
    admission : Admission.t;
    intended : (int, Time.ns) Hashtbl.t;  (* in flight *)
    mutable offered : int;
    mutable admitted : int;
    mutable shed : int;
    mutable lost : int;
    mutable completed : int;
    mutable outstanding : int;
    mutable seq : int;
    mutable trace : (Time.ns * Time.ns) list;  (* newest first *)
  }

  let complete t ~seq =
    match Hashtbl.find_opt t.intended seq with
    | None -> ()
    | Some intended ->
      Hashtbl.remove t.intended seq;
      t.outstanding <- t.outstanding - 1;
      let now = Engine.now t.engine in
      t.completed <- t.completed + 1;
      t.trace <- (now, now - intended) :: t.trace;
      Admission.on_complete t.admission
        ~latency_us:(Time.to_us_f (now - intended))

  let create ~engine ~arrival ~policy ~burn_source ~timeout ~dispatch ~start
      ~stop =
    let t =
      { engine;
        admission =
          Admission.create ~engine ~burn_source ~stop:(stop + timeout) policy;
        intended = Hashtbl.create 16; offered = 0; admitted = 0; shed = 0;
        lost = 0; completed = 0; outstanding = 0; seq = 0; trace = [] }
    in
    let arrive () =
      t.offered <- t.offered + 1;
      if not (Admission.decide t.admission ~outstanding:t.outstanding) then
        t.shed <- t.shed + 1
      else begin
        t.admitted <- t.admitted + 1;
        t.seq <- t.seq + 1;
        let seq = t.seq in
        Hashtbl.replace t.intended seq (Engine.now engine);
        t.outstanding <- t.outstanding + 1;
        dispatch ~seq;
        Engine.schedule_at engine ~at:(Engine.now engine + timeout) (fun () ->
            if Hashtbl.mem t.intended seq then begin
              Hashtbl.remove t.intended seq;
              t.lost <- t.lost + 1;
              t.outstanding <- t.outstanding - 1;
              Admission.on_lost t.admission
            end)
      end
    in
    let rec next () =
      let off = Arrival.next arrival in
      if off <> Arrival.ended && off < stop - start then
        Engine.schedule_at engine ~at:(start + off) (fun () ->
            arrive ();
            next ())
    in
    next ();
    t
end

(* One generated open-loop run, in nanoseconds: arrivals (Poisson,
   dense enough to tie, or constant), a timeout, the
   admission policy, the burn readings a Burn policy sees in turn, and
   one reply plan per [seq] (used cyclically): [None] never answers,
   [Some (d, dup)] answers at intended start + [d], twice when [dup].
   Delays cluster on the timeout so replies land exactly on deadlines,
   and constant arrivals put arrivals there too. *)
type timer_case = {
  tc_arrival : [ `Poisson of int * float | `Constant of float ];
  tc_timeout : int;
  tc_policy : [ `Fixed of int | `Burn of int | `Codel of int * int ];
  tc_burns : float list;
  tc_replies : (int * bool) option list;
}

let gen_timer_case =
  let open QCheck.Gen in
  let* tc_timeout = int_range 5 60 in
  let* tc_arrival =
    oneof
      [ map2 (fun s r -> `Poisson (s, r)) (int_bound 1000)
          (float_range 1e7 2e8);
        map (fun p -> `Constant (1e9 /. float_of_int p)) (int_range 1 20) ]
  in
  let* tc_policy =
    oneof
      [ map (fun k -> `Fixed k) (int_range 1 8);
        map (fun w -> `Burn w) (int_range 3 40);
        map2 (fun tg iv -> `Codel (tg, iv)) (int_range 1 60) (int_range 3 40) ]
  in
  let* tc_burns = list_size (int_range 1 8) (float_range 0.0 2.0) in
  let delay =
    frequency
      [ (3, return tc_timeout); (1, return (tc_timeout - 1));
        (1, return (tc_timeout + 1)); (4, int_bound (2 * tc_timeout)) ]
  in
  let* tc_replies =
    list_size (int_range 1 64)
      (frequency
         [ (1, return None);
           (6, map2 (fun d dup -> Some (d, dup)) delay
                 (frequency [ (4, return false); (1, return true) ])) ])
  in
  return { tc_arrival; tc_timeout; tc_policy; tc_burns; tc_replies }

let print_timer_case c =
  Printf.sprintf "arrival %s, timeout %d, %s, burns [%s], replies [%s]"
    (match c.tc_arrival with
    | `Poisson (s, r) -> Printf.sprintf "poisson(seed %d, %g/s)" s r
    | `Constant r -> Printf.sprintf "constant(%g/s)" r)
    c.tc_timeout
    (match c.tc_policy with
    | `Fixed k -> Printf.sprintf "fixed %d" k
    | `Burn w -> Printf.sprintf "burn window %d" w
    | `Codel (tg, iv) -> Printf.sprintf "codel target %dns interval %d" tg iv)
    (String.concat "; " (List.map string_of_float c.tc_burns))
    (String.concat "; "
       (List.map
          (function
            | None -> "never"
            | Some (d, dup) -> string_of_int d ^ if dup then "x2" else "")
          c.tc_replies))

(* Runs [c] on a fresh engine through [make], which builds a generator
   from the case's arrival process, policy, burn source and dispatch.
   Replies leave from a send event one hop after the arrival, the way a
   transport's do. *)
let run_timer_case c make =
  let engine = Engine.create () in
  let start = 100 and stop = 2100 in
  let arrival =
    match c.tc_arrival with
    | `Poisson (s, r) ->
      Arrival.poisson ~rng:(Prng.create (Int64.of_int s)) ~rate_per_s:r
    | `Constant r -> Arrival.constant ~rate_per_s:r
  in
  let policy =
    match c.tc_policy with
    | `Fixed k -> Admission.fixed k
    | `Burn w -> Admission.burn ~floor:1 ~init:4 ~ceiling:8 ~window:w ()
    | `Codel (tg, iv) ->
      Admission.codel ~target_us:(float_of_int tg /. 1000.0) ~interval:iv
        ~ceiling:8 ()
  in
  let burns = Array.of_list c.tc_burns and reads = ref 0 in
  let burn_source () =
    let b = burns.(!reads mod Array.length burns) in
    incr reads;
    b
  in
  let replies = Array.of_list c.tc_replies in
  let complete = ref (fun ~seq:_ -> ()) in
  let dispatch ~seq =
    let intended = Engine.now engine in
    Engine.schedule engine ~delay:0 (fun () ->
        match replies.(seq mod Array.length replies) with
        | None -> ()
        | Some (d, dup) ->
          let reply () = !complete ~seq in
          Engine.schedule_at engine ~at:(intended + d) reply;
          if dup then Engine.schedule_at engine ~at:(intended + d + 7) reply)
  in
  let result =
    make ~engine ~arrival ~policy ~burn_source ~timeout:c.tc_timeout ~dispatch
      ~start ~stop complete
  in
  Engine.run engine;
  result ()

let prop_deadline_timer_matches_per_request =
  QCheck.Test.make ~count:500
    ~name:"deadline timer matches per-request timeouts"
    (QCheck.make ~print:print_timer_case gen_timer_case)
    (fun c ->
      let timer =
        run_timer_case c
          (fun ~engine ~arrival ~policy ~burn_source ~timeout ~dispatch
               ~start ~stop complete ->
            let g =
              Loadgen.create ~engine ~arrival ~sizes:(Size_dist.Fixed 64)
                ~rng:(Prng.create 1L) ~admission:policy ~burn_source ~timeout
                ~dispatch:(fun ~seq ~size:_ -> dispatch ~seq)
                ~start ~stop ()
            in
            (complete := fun ~seq -> Loadgen.complete g ~seq);
            fun () ->
              let trace = ref [] in
              Loadgen.iter_completions g (fun at latency ->
                  trace := (at, latency) :: !trace);
              let k = Loadgen.counts g in
              ( (k.Loadgen.offered, k.Loadgen.admitted, k.Loadgen.shed,
                 k.Loadgen.lost, k.Loadgen.completed),
                List.rev !trace,
                (Loadgen.admission_transitions g, Loadgen.admission_limit g) ))
      in
      let reference =
        run_timer_case c
          (fun ~engine ~arrival ~policy ~burn_source ~timeout ~dispatch
               ~start ~stop complete ->
            let r =
              Per_request.create ~engine ~arrival ~policy ~burn_source
                ~timeout ~dispatch ~start ~stop
            in
            (complete := fun ~seq -> Per_request.complete r ~seq);
            fun () ->
              ( Per_request.
                  (r.offered, r.admitted, r.shed, r.lost, r.completed),
                List.rev r.Per_request.trace,
                ( Admission.transitions r.Per_request.admission,
                  Admission.limit r.Per_request.admission ) ))
      in
      timer = reference)

(* The timer costs events per timeout, not per request: three generators
   at 20 k/s each, every reply back in 20 us, fire [loadgen:timeout] at
   most [horizon / timeout + 2] times each (one event per admitted
   request, about 30 000, before the timer). *)
let test_timer_count () =
  let engine = Engine.create () in
  Engine.enable_profiling engine;
  let timeout = Time.ms 10 in
  let gens =
    List.init 3 (fun i ->
        let g = ref None in
        let gen =
          Loadgen.create ~engine
            ~arrival:
              (Arrival.poisson ~rng:(Prng.create (Int64.of_int i))
                 ~rate_per_s:20_000.0)
            ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 9L) ~timeout
            ~dispatch:(fun ~seq ~size:_ ->
              Engine.schedule engine ~delay:(Time.us 20) (fun () ->
                  Loadgen.complete (Option.get !g) ~seq))
            ~start:(Time.ms 1) ~stop:(Time.ms 501) ()
        in
        g := Some gen;
        gen)
  in
  Engine.run engine;
  List.iter
    (fun g ->
      let c = Loadgen.counts g in
      Alcotest.(check int) "every admitted request completed"
        c.Loadgen.admitted c.Loadgen.completed)
    gens;
  let timers =
    List.fold_left
      (fun a (label, n, _) -> if label = "loadgen:timeout" then a + n else a)
      0 (Engine.profile engine)
  in
  let bound = List.length gens * ((Engine.now engine / timeout) + 2) in
  if timers > bound then
    Alcotest.failf "%d loadgen:timeout events, bound %d" timers bound

(* --- open vs closed loop under a stalled server -------------------- *)

(* One server model, two measurement disciplines.  The server answers in
   1 ms, except requests landing in [150 ms, 350 ms) which are parked
   until the stall lifts.  The closed loop (one outstanding op, next
   send gated on the previous completion, latency from actual send)
   records the stall in exactly ONE sample, so its p50 — and with few
   enough samples even its p99 — stays at 1 ms: coordinated omission.
   The open loop keeps its schedule and measures from intended start, so
   every arrival during the stall carries its true wait. *)
let test_open_vs_closed_divergence () =
  let stall_lo = Time.ms 150 and stall_hi = Time.ms 350 in
  let reply_at engine =
    let now = Engine.now engine in
    if now >= stall_lo && now < stall_hi then stall_hi + Time.ms 1
    else now + Time.ms 1
  in
  (* Open loop. *)
  let open_p99, open_counts =
    let engine = Engine.create () in
    let g = ref None in
    let gen =
      Loadgen.create ~engine
        ~arrival:(Arrival.constant ~rate_per_s:500.0)
        ~sizes:(Size_dist.Fixed 64) ~rng:(Prng.create 3L)
        ~admission:(Admission.fixed 1024) ~timeout:(Time.sec 1)
        ~dispatch:(fun ~seq ~size:_ ->
          Engine.schedule_at engine ~at:(reply_at engine) (fun () ->
              Loadgen.complete (Option.get !g) ~seq))
        ~start:0 ~stop:(Time.ms 500) ()
    in
    g := Some gen;
    Engine.run engine;
    (Hdr.percentile (Loadgen.latency gen) 99.0, Loadgen.counts gen)
  in
  (* Closed loop over the same server model. *)
  let closed_p99, closed_n =
    let engine = Engine.create () in
    let lat = Hdr.create () in
    let n = ref 0 in
    let rec send () =
      if Engine.now engine < Time.ms 500 then begin
        let sent_at = Engine.now engine in
        Engine.schedule_at engine ~at:(reply_at engine) (fun () ->
            Hdr.add lat (Time.to_us_f (Engine.now engine - sent_at));
            incr n;
            send ())
      end
    in
    Engine.schedule_at engine ~at:0 send;
    Engine.run engine;
    (Hdr.percentile lat 99.0, !n)
  in
  Alcotest.(check int) "open loop completed everything it admitted"
    open_counts.Loadgen.admitted open_counts.Loadgen.completed;
  Alcotest.(check bool)
    (Printf.sprintf "closed loop slept through the stall (p99 %.0fus)"
       closed_p99)
    true (closed_p99 < 2_000.0);
  Alcotest.(check bool)
    (Printf.sprintf "closed loop paused its own sampling (%d samples)"
       closed_n)
    true (closed_n < 350);
  Alcotest.(check bool)
    (Printf.sprintf "open loop carries the stall (p99 %.0fus)" open_p99)
    true (open_p99 > 100_000.0);
  Alcotest.(check bool) "divergence is two orders of magnitude" true
    (open_p99 > 50.0 *. closed_p99)

(* --- fleet scenario determinism ----------------------------------- *)

module Fig_fleet = Nest_experiments.Fig_fleet
module Exp_util = Nest_experiments.Exp_util

(* End-to-end guard at unit-test scale: a 3-node fleet (one node per
   deployment mode) must produce a byte-identical digest at every split
   of the shared list, as it runs on three nodes. *)
let test_fleet_digest_determinism () =
  let params =
    { Fig_fleet.default_params with Fig_fleet.nodes = 3; pods = 30;
      rate = 600.0 }
  in
  Alcotest.(check bool) "fleet check" true
    (Fig_fleet.check ~params ~quick:true ())

(* Splits that collapse onto an earlier one once shards are capped at
   the fleet size (and domains at the shard count) run once, labelled
   as they ran: a one-node check is a single (1,1) run. *)
let test_fleet_check_splits () =
  let splits = Alcotest.(list (pair int int)) in
  Alcotest.check splits "one node" [ (1, 1) ] (Exp_util.splits_for ~nodes:1);
  Alcotest.check splits "three nodes"
    [ (1, 1); (2, 1); (2, 2); (3, 2); (3, 3) ]
    (Exp_util.splits_for ~nodes:3);
  Alcotest.check splits "four nodes run the whole list"
    [ (1, 1); (2, 1); (2, 2); (4, 2); (4, 4) ]
    (Exp_util.splits_for ~nodes:4);
  Alcotest.(check bool) "one-node check passes" true
    (Fig_fleet.check
       ~params:{ Fig_fleet.default_params with Fig_fleet.nodes = 1; pods = 10;
                 rate = 300.0 }
       ~quick:true ())

(* The rendered run reads the scenario it ran: on 3 nodes, 8 shards
   and 6 domains clamp to 3 and 3, and the header names the split that
   ran.  Its totals line is the same fold [summarize] returns. *)
let test_fleet_run_reads_scenario () =
  let params =
    { Fig_fleet.default_params with Fig_fleet.nodes = 3; pods = 30;
      rate = 600.0 }
  in
  let path = Filename.temp_file "fleet-run-" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    (fun () -> Fig_fleet.run ~params ~shards:8 ~domains:6 ~quick:true ());
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let lines = List.map String.trim (String.split_on_char '\n' text) in
  let has sub l = Astring.String.is_infix ~affix:sub l in
  Alcotest.(check bool) "header names the clamped split" true
    (List.exists (has "Fleet: 3 nodes, 3 shards, 3 domains,") lines);
  let s = Fig_fleet.summarize ~params ~shards:8 ~domains:6 ~quick:true () in
  Alcotest.(check (option string)) "fleet total equals summarize"
    (Some
       (Printf.sprintf "fleet total: offered %d shed %d lost %d done %d"
          s.Fig_fleet.s_offered s.Fig_fleet.s_shed s.Fig_fleet.s_lost
          s.Fig_fleet.s_completed))
    (List.find_opt (has "fleet total:") lines)

(* Allocation gate for the whole fleet pipeline at unit-test scale:
   build (testbeds, deployment, the churn trace), play and the digest,
   as [summarize] runs them on one shard.  Minor words per completed
   request are exact on one domain.  [Gc.quick_stat]'s and
   [Gc.counters]'s sums move from run to run on OCaml 5.1 (they lag by
   up to a minor heap), so the gate reads [Gc.minor_words].  It was
   359.7 when the bound was set (378.1 under dev, bound 382; 367.6 and
   386.0 while the digest formatted each latency as a float, 436.2
   before packet classification and the arrival stream stopped
   allocating), and the bound is that + 1 %. *)
let fleet_words_per_request_bound = Helpers.per_profile ~release:364.0 ~dev:382.0

let test_fleet_allocation () =
  let params =
    { Fig_fleet.default_params with Fig_fleet.nodes = 6; pods = 300;
      rate = 6000.0 }
  in
  let w0 = Gc.minor_words () in
  let s = Fig_fleet.summarize ~params ~quick:true () in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "requests completed" true
    (s.Fig_fleet.s_completed > 1000);
  let per_request = words /. float_of_int s.Fig_fleet.s_completed in
  if per_request > fleet_words_per_request_bound then
    Alcotest.failf "%.1f minor words per completed request, bound %.0f"
      per_request fleet_words_per_request_bound

(* The shared compare fails on any run that differs from its cell's
   first run, wherever it sits. *)
let test_digests_agree () =
  let cells last =
    [ ("a", [ ("r1", "x"); ("r2", "x") ]); ("b", [ ("r1", "y"); ("r2", last) ]) ]
  in
  Alcotest.(check bool) "all equal" true
    (Exp_util.digests_agree ~title:"t" (cells "y"));
  Alcotest.(check bool) "last run of the last cell differs" false
    (Exp_util.digests_agree ~title:"t" (cells "z"))

let () =
  Alcotest.run "loadgen"
    [ ( "arrival",
        [ Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "poisson deterministic" `Quick
            test_poisson_deterministic;
          Alcotest.test_case "tiny rates end the stream" `Quick
            test_tiny_rate_ends ] );
      ( "sizes",
        [ Alcotest.test_case "distributions" `Quick test_sizes ] );
      ( "accounting",
        [ Alcotest.test_case "shed and lost" `Quick test_shed_and_lost;
          Alcotest.test_case "all completed" `Quick test_all_completed ] );
      ( "deadline timer",
        [ QCheck_alcotest.to_alcotest prop_deadline_timer_matches_per_request;
          Alcotest.test_case "one timer per generator" `Quick
            test_timer_count ] );
      ( "coordinated omission",
        [ Alcotest.test_case "open vs closed divergence" `Quick
            test_open_vs_closed_divergence ] );
      ( "fleet",
        [ Alcotest.test_case "digest across shards/domains" `Slow
            test_fleet_digest_determinism;
          Alcotest.test_case "clamped splits run once" `Quick
            test_fleet_check_splits;
          Alcotest.test_case "run reads the scenario" `Quick
            test_fleet_run_reads_scenario;
          Alcotest.test_case "words per completed request" `Quick
            test_fleet_allocation;
          Alcotest.test_case "digest mismatch flagged" `Quick
            test_digests_agree ] ) ]
