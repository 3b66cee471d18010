(* Conservative sharded engine: primitive ordering contracts, the
   window counters, the link guards, and the tentpole invariant —
   shards=1 ≡ shards=N byte-identical on generated fleet
   configurations. *)

module Sharded = Nest_sim.Sharded
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Fig_fleet = Nest_experiments.Fig_fleet
module Exp_util = Nest_experiments.Exp_util

(* ------------------------------------------------------------------ *)
(* Primitives. *)

(* Two shards bounce a counter back and forth.  Each shard appends to
   its own log slot (single writer per domain); the merged trace must
   not depend on how many domains executed the run. *)
let ping_pong ~domains =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let fwd = Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) () in
  let rev = Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) () in
  let logs = Array.make 2 [] in
  let note i now = logs.(i) <- now :: logs.(i) in
  let rec ping n () =
    note 0 (Engine.now e0);
    if n > 0 then
      Sharded.send sd fwd ~delay:(Time.us 15) (fun () ->
          note 1 (Engine.now e1);
          Sharded.send sd rev ~delay:(Time.us 25) (ping (n - 1)))
  in
  Engine.schedule_at e0 ~label:"ping" ~at:(Time.us 1) (ping 20);
  Sharded.run ~until:(Time.ms 2) ~domains sd;
  (List.rev logs.(0), List.rev logs.(1), Sharded.stats sd)

let test_ping_pong_domains_identical () =
  let l0, l1, _ = ping_pong ~domains:1 in
  let l0', l1', _ = ping_pong ~domains:2 in
  Alcotest.(check (list int)) "shard 0 trace, domains 1 = 2" l0 l0';
  Alcotest.(check (list int)) "shard 1 trace, domains 1 = 2" l1 l1';
  Alcotest.(check int) "all pings landed" 21 (List.length l0)

(* Every counter is part of the determinism contract, the window
   counters included: they follow from event dates alone, so domains 1
   and 2 read the same. *)
let test_stats_counters () =
  let _, _, st = ping_pong ~domains:1 in
  let _, _, st2 = ping_pong ~domains:2 in
  Alcotest.(check int) "two shards" 2 (Array.length st);
  Alcotest.(check int) "shard 1 deliveries = pings" 20 st.(1).Sharded.ss_delivered;
  Alcotest.(check bool) "events counted" true (st.(0).Sharded.ss_events > 0);
  Alcotest.(check bool) "windows counted" true (st.(0).Sharded.ss_windows > 0);
  let events = Array.fold_left (fun a s -> a + s.Sharded.ss_events) 0 st in
  let critical = Array.fold_left (fun a s -> a + s.Sharded.ss_critical) 0 st in
  (* One bounce at a time: no window runs both shards. *)
  Alcotest.(check int) "critical events = events" events critical;
  Array.iteri
    (fun i (a : Sharded.shard_stats) ->
      let c = st2.(i) in
      let same what f =
        Alcotest.(check int)
          (Printf.sprintf "shard %d %s, domains 1 = 2" i what)
          (f a) (f c)
      in
      same "delivered" (fun s -> s.Sharded.ss_delivered);
      same "events" (fun s -> s.Sharded.ss_events);
      same "windows" (fun s -> s.Sharded.ss_windows);
      same "critical" (fun s -> s.Sharded.ss_critical);
      same "pending" (fun s -> s.Sharded.ss_pending);
      same "clock" (fun s -> s.Sharded.ss_clock))
    st

(* Idle shards do not creep one lookahead at a time: with one message
   in flight and nothing else to do, the window count is fixed by the
   work, not by how far off the horizon is — each window starts at the
   earliest pending work item, on any domain count. *)
let idle_pair ~until ~domains =
  let sd = Sharded.create ~shards:2 () in
  let fwd = Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) () in
  ignore (Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) ());
  let got = ref 0 in
  Engine.schedule_at (Sharded.engine sd 0) ~label:"emit" ~at:(Time.us 1)
    (fun () -> Sharded.send sd fwd ~delay:(Time.us 15) (fun () -> incr got));
  Sharded.run ~until ~domains sd;
  (!got, Sharded.stats sd)

let test_idle_no_creep () =
  List.iter
    (fun (until, domains) ->
      let got, st = idle_pair ~until ~domains in
      Alcotest.(check int) "delivered" 1 got;
      Array.iter
        (fun (s : Sharded.shard_stats) ->
          let name what =
            Printf.sprintf "shard %d %s, until %d, domains %d" s.ss_shard what
              until domains
          in
          Alcotest.(check int) (name "windows") 2 s.ss_windows;
          Alcotest.(check int) (name "critical events") 1 s.ss_critical;
          Alcotest.(check int) (name "clock") until s.ss_clock)
        st)
    [ (Time.sec 3600, 1); (Time.sec 3600, 2); (max_int / 2, 1);
      (max_int / 2, 2) ]

(* Waiting allocates nothing.  Shard 0 runs an event every 100 ns,
   shard 1 one every 50 us, and both have work in every 10 us window of
   the 20 ms run, so on two domains one domain waits at the barrier in
   each of the 2000 windows (mostly the sparse one).  Minor words are
   read once the spawned domain has joined (its counts then fold into
   [Gc.quick_stat]); the work and the windows are the same on any
   domain count, so two domains may exceed one only by the fixed cost
   of spawning the domain, however many windows the run took.  Exact
   counts, so any host; pinned to OCaml 5.1.1 like [test_stack]'s
   allocation gate.  Two domains read 238 words more than one when the
   allowance was set. *)
let spawn_words_allowance = 400.0

let skewed_pair ~domains =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let la = Time.us 10 in
  let fwd = Sharded.link sd ~src:0 ~dst:1 ~lookahead:la () in
  let rev = Sharded.link sd ~src:1 ~dst:0 ~lookahead:la () in
  (* [ticks] is shard 0's, [got] shard 1's: one writer each. *)
  let ticks = ref 0 and got = ref 0 in
  let receive () = incr got in
  let rec dense () =
    incr ticks;
    if !ticks mod 50 = 0 then Sharded.send sd fwd ~delay:la receive;
    Engine.schedule e0 ~label:"dense" ~delay:100 dense
  in
  let rec sparse () =
    Sharded.send sd rev ~delay:la ignore;
    Engine.schedule e1 ~label:"sparse" ~delay:(Time.us 50) sparse
  in
  Engine.schedule_at e0 ~label:"dense" ~at:1 dense;
  Engine.schedule_at e1 ~label:"sparse" ~at:1 sparse;
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  Sharded.run ~until:(Time.ms 20) ~domains sd;
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  (words, !got, Sharded.stats sd)

let test_waiting_allocates_nothing () =
  let w1, got1, st1 = skewed_pair ~domains:1 in
  let w2, got2, st = skewed_pair ~domains:2 in
  Alcotest.(check int) "same deliveries" got1 got2;
  Alcotest.(check int) "windows, 1 domain" 2000 st1.(0).Sharded.ss_windows;
  Alcotest.(check int) "windows, 2 domains" 2000 st.(0).Sharded.ss_windows;
  if w2 -. w1 > spawn_words_allowance then
    Alcotest.failf
      "two domains allocated %.0f minor words more than one (%.0f vs %.0f; \
       allowance %.0f, %d windows)"
      (w2 -. w1) w2 w1 spawn_words_allowance st.(0).Sharded.ss_windows

(* A 1-shard group whose links all start and end on its one shard has
   nothing to synchronise: it runs straight to the horizon in no window,
   and its deliveries still follow (date, link key, send order), before
   a same-date local event. *)
let test_self_links () =
  let sd = Sharded.create ~shards:1 () in
  let e = Sharded.engine sd 0 in
  let la = Sharded.link sd ~src:0 ~dst:0 ~lookahead:(Time.us 10) () in
  let lb = Sharded.link sd ~src:0 ~dst:0 ~lookahead:(Time.us 10) () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Engine.schedule_at e ~label:"local" ~at:(Time.us 30) (note "local");
  Engine.schedule_at e ~label:"emit" ~at:(Time.us 10) (fun () ->
      Sharded.send sd lb ~delay:(Time.us 20) (note "b1");
      Sharded.send sd la ~delay:(Time.us 25) (note "a-late");
      Sharded.send sd lb ~delay:(Time.us 20) (note "b2");
      Sharded.send sd la ~delay:(Time.us 20) (note "a"));
  Sharded.run ~until:(Time.us 100) sd;
  Alcotest.(check (list string))
    "date, then link key, then send order; deliveries before locals"
    [ "a"; "b1"; "b2"; "local"; "a-late" ] (List.rev !log);
  let st = Sharded.stats sd in
  Alcotest.(check int) "no window" 0 st.(0).Sharded.ss_windows;
  Alcotest.(check int) "critical events = events" st.(0).Sharded.ss_events
    st.(0).Sharded.ss_critical;
  Alcotest.(check int) "clock at the horizon" (Time.us 100)
    st.(0).Sharded.ss_clock

(* Same-date ordering: deliveries beat local events, and among
   same-date deliveries link creation order wins regardless of which
   link sent first. *)
let test_tie_order () =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let la = Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) () in
  let lb = Sharded.link sd ~src:1 ~dst:0 ~lookahead:(Time.us 10) () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  (* Local shard-0 event dated exactly at the deliveries' date. *)
  Engine.schedule_at e0 ~label:"local" ~at:(Time.us 30) (note "local");
  Engine.schedule_at e1 ~label:"emit" ~at:(Time.us 10) (fun () ->
      (* Send on the later-created link first: creation order must
         still decide the tie at the destination. *)
      Sharded.send sd lb ~delay:(Time.us 20) (note "b");
      Sharded.send sd la ~delay:(Time.us 20) (note "a"));
  Sharded.run ~until:(Time.us 100) sd;
  Alcotest.(check (list string))
    "deliveries (in link order) before the same-date local event"
    [ "a"; "b"; "local" ] (List.rev !log)

(* Links into different destinations created interleaved: keys are
   global creation order, not contiguous per shard, and the tie-break
   still follows them.  Same-date deliveries into shard 1 ride keys 0,
   2 and 4 (sent in reverse), with keys 1 and 3 feeding shard 2. *)
let test_interleaved_link_keys () =
  let sd = Sharded.create ~shards:3 () in
  let e0 = Sharded.engine sd 0 in
  let la = Time.us 10 in
  let mk src dst = Sharded.link sd ~src ~dst ~lookahead:la () in
  let k0 = mk 0 1 in
  let k1 = mk 0 2 in
  let k2 = mk 2 1 in
  let k3 = mk 1 2 in
  let k4 = mk 0 1 in
  let logs = Array.make 3 [] in
  let note i tag () = logs.(i) <- tag :: logs.(i) in
  Engine.schedule_at e0 ~label:"emit" ~at:(Time.us 10) (fun () ->
      Sharded.send sd k4 ~delay:(Time.us 20) (note 1 "k4");
      Sharded.send sd k1 ~delay:(Time.us 20) (note 2 "k1");
      Sharded.send sd k0 ~delay:(Time.us 20) (note 1 "k0"));
  Engine.schedule_at (Sharded.engine sd 2) ~label:"emit" ~at:(Time.us 10)
    (fun () -> Sharded.send sd k2 ~delay:(Time.us 20) (note 1 "k2"));
  Engine.schedule_at (Sharded.engine sd 1) ~label:"emit" ~at:(Time.us 10)
    (fun () -> Sharded.send sd k3 ~delay:(Time.us 20) (note 2 "k3"));
  Engine.schedule_at (Sharded.engine sd 1) ~label:"local" ~at:(Time.us 30)
    (note 1 "local");
  Sharded.run ~until:(Time.us 100) sd;
  Alcotest.(check (list string))
    "shard 1: key order, then the same-date local event"
    [ "k0"; "k2"; "k4"; "local" ] (List.rev logs.(1));
  Alcotest.(check (list string)) "shard 2: key order" [ "k1"; "k3" ]
    (List.rev logs.(2));
  let st = Sharded.stats sd in
  Alcotest.(check (list int)) "deliveries per shard" [ 0; 3; 2 ]
    (Array.to_list (Array.map (fun s -> s.Sharded.ss_delivered) st))

(* [ss_pending] counts inbox messages dated beyond the horizon, next to
   the engine's own queue; they drain on the next run. *)
let test_stats_pending () =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 and e1 = Sharded.engine sd 1 in
  let l = Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) () in
  Engine.schedule_at e0 ~label:"emit" ~at:(Time.us 1) (fun () ->
      Sharded.send sd l ~delay:(Time.us 500) ignore;
      Sharded.send sd l ~delay:(Time.us 20) ignore;
      Sharded.send sd l ~delay:(Time.us 700) ignore);
  Engine.schedule_at e1 ~label:"late" ~at:(Time.us 900) ignore;
  Sharded.run ~until:(Time.us 100) sd;
  let st = Sharded.stats sd in
  Alcotest.(check int) "one delivery under the horizon" 1
    st.(1).Sharded.ss_delivered;
  Alcotest.(check int) "two inbox messages + one local event pending" 3
    st.(1).Sharded.ss_pending;
  Alcotest.(check int) "source shard drained" 0 st.(0).Sharded.ss_pending;
  Sharded.run ~until:(Time.ms 1) sd;
  let st = Sharded.stats sd in
  Alcotest.(check int) "all delivered" 3 st.(1).Sharded.ss_delivered;
  Alcotest.(check int) "nothing pending" 0 st.(1).Sharded.ss_pending

let test_zero_lookahead_rejected () =
  let sd = Sharded.create ~shards:2 () in
  Alcotest.check_raises "lookahead 0 refused at link creation"
    (Invalid_argument
       "Sharded.link: lookahead must be > 0 (a zero-lookahead link \
        cannot be synchronized conservatively and would deadlock)")
    (fun () -> ignore (Sharded.link sd ~src:0 ~dst:1 ~lookahead:0 ()))

let test_undersized_delay_rejected () =
  let sd = Sharded.create ~shards:2 () in
  let e0 = Sharded.engine sd 0 in
  let l = Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) () in
  let saw = ref false in
  Engine.schedule_at e0 ~label:"bad" ~at:1 (fun () ->
      match Sharded.send sd l ~delay:(Time.us 5) (fun () -> ()) with
      | () -> ()
      | exception Invalid_argument _ -> saw := true);
  Sharded.run ~until:(Time.us 50) sd;
  Alcotest.(check bool) "delay < lookahead refused at send" true !saw

(* An event that raises on a spawned domain's shard ends the run there
   and then: [run] re-raises it instead of leaving the other domain
   waiting at the barrier for good. *)
let test_event_exception () =
  List.iter
    (fun domains ->
      let sd = Sharded.create ~shards:2 () in
      ignore (Sharded.link sd ~src:0 ~dst:1 ~lookahead:(Time.us 10) ());
      Engine.schedule_at (Sharded.engine sd 1) ~label:"boom" ~at:(Time.us 5)
        (fun () -> failwith "boom");
      Engine.schedule_at (Sharded.engine sd 0) ~label:"later" ~at:(Time.us 50)
        ignore;
      Alcotest.check_raises
        (Printf.sprintf "re-raised on %d domains" domains)
        (Failure "boom")
        (fun () -> Sharded.run ~until:(Time.us 100) ~domains sd))
    [ 1; 2 ]

(* More domains than the runtime allows are refused before the run
   spawns one or moves a clock; the count is capped at the shard count
   first, so a small group takes any [domains]. *)
let test_domain_limit () =
  let sd = Sharded.create ~shards:(Nest_sim.Domain_pool.max_domains + 1) () in
  Alcotest.check_raises "129 domains refused"
    (Invalid_argument "Sharded.run: 129 domains exceed the runtime's 128")
    (fun () -> Sharded.run ~until:(Time.us 100) ~domains:1000 sd);
  Alcotest.(check int) "no clock moved" 0 (Engine.now (Sharded.engine sd 0));
  let small = Sharded.create ~shards:1 () in
  Sharded.run ~until:(Time.us 100) ~domains:1000 small;
  Alcotest.(check int) "one shard ran on the caller" (Time.us 100)
    (Engine.now (Sharded.engine small 0))

(* ------------------------------------------------------------------ *)
(* Generated ordering property. *)

(* A random wiring: links with random endpoints and lookaheads, sends
   fired from source-shard events on a coarse date grid (so delivery
   dates collide often), and local events on the same grid.  Each shard
   also runs a ticker of its own period (none for some), so shards run
   at skewed event densities: on two domains a sparse shard waits at the
   barrier for a dense one. *)
type scenario = {
  sc_shards : int;
  sc_links : (int * int * int) array;      (* src, dst, lookahead *)
  sc_sends : (int * int * int) list;       (* date, link index, extra delay *)
  sc_locals : (int * int) list;            (* shard, date *)
  sc_ticks : int array;                    (* per-shard period; 0 = none *)
}

let gen_scenario =
  let open QCheck.Gen in
  let grid lo hi = map (fun k -> k * 10) (int_range lo hi) in
  int_range 1 4 >>= fun n ->
  array_size (int_range 1 40)
    (triple (int_bound (n - 1)) (int_bound (n - 1)) (grid 1 3))
  >>= fun links ->
  let nl = Array.length links in
  list_size (int_range 0 80)
    (triple (grid 1 10) (int_bound (nl - 1)) (grid 0 2))
  >>= fun sends ->
  list_size (int_range 0 20) (pair (int_bound (n - 1)) (grid 1 16))
  >>= fun locals ->
  array_repeat n (oneofl [ 0; 0; 1; 4; 25 ])
  >|= fun ticks ->
  { sc_shards = n; sc_links = links; sc_sends = sends; sc_locals = locals;
    sc_ticks = ticks }

let print_scenario sc =
  let triples l =
    String.concat ";"
      (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) l)
  in
  Printf.sprintf "shards=%d links=[%s] sends=[%s] locals=[%s] ticks=[%s]"
    sc.sc_shards
    (triples (Array.to_list sc.sc_links))
    (triples sc.sc_sends)
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) sc.sc_locals))
    (String.concat ";" (Array.to_list (Array.map string_of_int sc.sc_ticks)))

(* What one destination saw, in execution order.  A delivery carries
   (date, link key, per-link send order); a local event its date and
   scheduling index (ticks number on after the listed locals: each is
   scheduled after all of them, so it follows every same-date one). *)
type seen = Deliv of int * int * int | Local of int * int

let order_key = function
  | Deliv (d, k, n) -> (d, 0, k, n)
  | Local (d, i) -> (d, 1, i, 0)

let run_scenario sc ~domains =
  let sd = Sharded.create ~shards:sc.sc_shards () in
  let eng = Sharded.engine sd in
  let links =
    Array.map
      (fun (src, dst, lookahead) -> Sharded.link sd ~src ~dst ~lookahead ())
      sc.sc_links
  in
  (* [sent.(k)] is written by link [k]'s source shard only, [logs.(i)]
     by shard [i] only: one writer per slot under any domain count. *)
  let sent = Array.make (Array.length links) 0 in
  let logs = Array.make sc.sc_shards [] in
  List.iter
    (fun (at, k, extra) ->
      let src, dst, lookahead = sc.sc_links.(k) in
      Engine.schedule_at (eng src) ~label:"send" ~at (fun () ->
          let n = sent.(k) in
          sent.(k) <- n + 1;
          Sharded.send sd links.(k) ~delay:(lookahead + extra) (fun () ->
              logs.(dst) <- Deliv (Engine.now (eng dst), k, n) :: logs.(dst))))
    sc.sc_sends;
  List.iteri
    (fun i (sh, at) ->
      Engine.schedule_at (eng sh) ~label:"local" ~at (fun () ->
          logs.(sh) <- Local (Engine.now (eng sh), i) :: logs.(sh)))
    sc.sc_locals;
  let nlocals = List.length sc.sc_locals in
  Array.iteri
    (fun sh period ->
      if period > 0 then begin
        let e = eng sh and k = ref 0 in
        let rec tick () =
          logs.(sh) <- Local (Engine.now e, nlocals + !k) :: logs.(sh);
          incr k;
          Engine.schedule e ~label:"tick" ~delay:period tick
        in
        Engine.schedule_at e ~label:"tick" ~at:period tick
      end)
    sc.sc_ticks;
  Sharded.run ~until:(Time.us 1) ~domains sd;
  Array.map List.rev logs

let prop_delivery_order =
  QCheck.Test.make ~count:150
    ~name:"deliveries in (date, key, send order), before same-date locals"
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun sc ->
      let logs = run_scenario sc ~domains:1 in
      let ordered log =
        let keys = List.map order_key log in
        keys = List.sort compare keys
      in
      let delivered =
        Array.fold_left
          (fun acc log ->
            acc
            + List.length
                (List.filter (function Deliv _ -> true | Local _ -> false) log))
          0 logs
      in
      Array.for_all ordered logs
      && delivered = List.length sc.sc_sends
      && logs = run_scenario sc ~domains:2)

(* ------------------------------------------------------------------ *)
(* The tentpole invariant on the real scenario. *)

(* Generated fleet configurations: the digest at any split of the
   shared list equals the (1,1) digest, and both runs balance their
   books (every offered request was shed, lost or completed). *)
let gen_fleet_config =
  let open QCheck.Gen in
  let* nodes = int_range 1 6 in
  let* pods = int_range 0 60 in
  let* rate = oneofl [ 300.0; 2000.0; 6000.0 ] in
  let* profile = oneofl ("none" :: Nest_net.Wire.profile_names ()) in
  let* fault_rate = oneofl [ 0.0; 0.3 ] in
  let* admission = oneofl [ `Fixed; `Burn; `Codel ] in
  let* autoscale = bool in
  let* service_us = oneofl [ 0.25; 2000.0 ] in
  let* standby = int_range 0 2 in
  let* seed = int_bound 1_000_000 in
  let+ split = oneofl (List.tl (Exp_util.splits_for ~nodes:4)) in
  ( { Fig_fleet.default_params with
      Fig_fleet.nodes; pods; rate; profile = Nest_net.Wire.profile profile;
      fault_rate; admission; autoscale; service_us; standby;
      seed = Int64.of_int seed },
    split )

let print_fleet_config ((p : Fig_fleet.params), (shards, domains)) =
  Printf.sprintf
    "nodes=%d pods=%d rate=%g profile=%s fault-rate=%g admission=%s \
     autoscale=%b service-us=%g standby=%d seed=%Ld shards=%d domains=%d"
    p.nodes p.pods p.rate
    (match p.profile with Some pr -> pr.Nest_net.Wire.p_name | None -> "none")
    p.fault_rate
    (match p.admission with `Fixed -> "fixed" | `Burn -> "burn" | `Codel -> "codel")
    p.autoscale p.service_us p.standby p.seed shards domains

(* Shrink towards the plainest fleet one field at a time, keeping the
   split, so a failure reports the fewest features that still break. *)
let shrink_fleet_config ((p : Fig_fleet.params), split) yield =
  let d = Fig_fleet.default_params in
  List.iter
    (fun p' -> if p' <> p then yield (p', split))
    [ { p with nodes = max 1 (p.nodes - 1) }; { p with pods = p.pods / 2 };
      { p with rate = 300.0 }; { p with profile = None };
      { p with fault_rate = 0.0 }; { p with admission = d.admission };
      { p with autoscale = false }; { p with service_us = d.service_us };
      { p with standby = 0 } ]

let prop_fleet_digest_identity =
  QCheck.Test.make ~count:40 ~name:"generated fleet digest identity"
    (QCheck.make ~print:print_fleet_config ~shrink:shrink_fleet_config
       gen_fleet_config)
    (fun (params, (shards, domains)) ->
      let run ~shards ~domains =
        Fig_fleet.summarize ~params ~shards ~domains ~quick:true ()
      in
      let books (s : Fig_fleet.summary) =
        s.s_offered = s.s_shed + s.s_lost + s.s_completed
      in
      let reference = run ~shards:1 ~domains:1 in
      let split = run ~shards ~domains in
      String.equal reference.s_digest split.s_digest
      && books reference && books split)

(* The window counters of one small fleet, pinned at equality: they
   follow from event dates alone, so both 2-shard splits read the same
   pair on any host.  A change to the scenario's event dates, or to how
   windows are cut, moves them. *)
let fleet_windows = 1188
let fleet_critical = 15949

let test_fleet_window_counters () =
  let params =
    { Fig_fleet.default_params with Fig_fleet.nodes = 4; pods = 20 }
  in
  List.iter
    (fun domains ->
      let s = Fig_fleet.summarize ~params ~shards:2 ~domains ~quick:true () in
      let name what =
        Printf.sprintf "%s, 2 shards on %d domains" what domains
      in
      Alcotest.(check int) (name "windows") fleet_windows s.Fig_fleet.s_windows;
      Alcotest.(check int) (name "critical events") fleet_critical
        s.Fig_fleet.s_critical)
    [ 1; 2 ]

let () =
  Alcotest.run "sharded"
    [
      ( "primitives",
        [
          Alcotest.test_case "ping-pong domains 1 = 2" `Quick
            test_ping_pong_domains_identical;
          Alcotest.test_case "per-shard stats" `Quick test_stats_counters;
          Alcotest.test_case "same-date tie order" `Quick test_tie_order;
          Alcotest.test_case "interleaved link keys" `Quick
            test_interleaved_link_keys;
          Alcotest.test_case "pending counts the inbox" `Quick
            test_stats_pending;
          QCheck_alcotest.to_alcotest prop_delivery_order;
          Alcotest.test_case "idle shards do not creep" `Quick
            test_idle_no_creep;
          Alcotest.test_case "waiting allocates nothing" `Quick
            test_waiting_allocates_nothing;
          Alcotest.test_case "self-links need no window" `Quick
            test_self_links;
        ] );
      ( "guards",
        [
          Alcotest.test_case "zero lookahead rejected" `Quick
            test_zero_lookahead_rejected;
          Alcotest.test_case "undersized delay rejected" `Quick
            test_undersized_delay_rejected;
          Alcotest.test_case "an event's exception ends the run" `Quick
            test_event_exception;
          Alcotest.test_case "domain limit" `Quick test_domain_limit;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_fleet_digest_identity;
          Alcotest.test_case "fleet window counters" `Quick
            test_fleet_window_counters;
        ] );
    ]
