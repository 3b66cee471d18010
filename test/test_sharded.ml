(* Conservative sharded engine: primitive ordering contracts, the
   deadlock guard, and the tentpole invariant — shards=1 ≡ shards=N
   byte-identical on generated fleet configurations and under chaos. *)

module Sharded = Nest_sim.Sharded
module Engine = Nest_sim.Engine
module Time = Nest_sim.Time
module Chaos = Nest_fault.Chaos
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

(* Work counters are part of the determinism contract; the sync
   counters ([ss_null], [ss_blocked]) are too on one domain, but with
   several they count how often a shard caught its neighbour mid-run,
   which depends on the interleaving. *)
let test_stats_counters () =
  let _, _, st = ping_pong ~domains:1 in
  let _, _, again = ping_pong ~domains:1 in
  let _, _, st2 = ping_pong ~domains:2 in
  Alcotest.(check int) "two shards" 2 (Array.length st);
  Alcotest.(check int) "shard 1 deliveries = pings" 20 st.(1).Sharded.ss_delivered;
  Alcotest.(check bool) "events counted" true (st.(0).Sharded.ss_events > 0);
  Array.iteri
    (fun i (a : Sharded.shard_stats) ->
      let name what run = Printf.sprintf "shard %d %s, %s" i what run in
      let b = again.(i) and c = st2.(i) in
      Alcotest.(check int) (name "null" "domains 1 twice") a.ss_null b.ss_null;
      Alcotest.(check int) (name "blocked" "domains 1 twice") a.ss_blocked
        b.ss_blocked;
      Alcotest.(check bool) (name "null" "broadcast at least once") true
        (a.ss_null > 0 && c.ss_null > 0);
      let same what f = Alcotest.(check int) (name what "domains 1 = 2") (f a) (f c) in
      same "delivered" (fun s -> s.Sharded.ss_delivered);
      same "events" (fun s -> s.Sharded.ss_events);
      same "pending" (fun s -> s.Sharded.ss_pending);
      same "clock" (fun s -> s.Sharded.ss_clock))
    st

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

(* ------------------------------------------------------------------ *)
(* Generated ordering property. *)

(* A random wiring: links with random endpoints and lookaheads, sends
   fired from source-shard events on a coarse date grid (so delivery
   dates collide often), and local events on the same grid. *)
type scenario = {
  sc_shards : int;
  sc_links : (int * int * int) array;      (* src, dst, lookahead *)
  sc_sends : (int * int * int) list;       (* date, link index, extra delay *)
  sc_locals : (int * int) list;            (* shard, date *)
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
  >|= fun locals ->
  { sc_shards = n; sc_links = links; sc_sends = sends; sc_locals = locals }

let print_scenario sc =
  let triples l =
    String.concat ";"
      (List.map (fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) l)
  in
  Printf.sprintf "shards=%d links=[%s] sends=[%s] locals=[%s]" sc.sc_shards
    (triples (Array.to_list sc.sc_links))
    (triples sc.sc_sends)
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) sc.sc_locals))

(* What one destination saw, in execution order.  A delivery carries
   (date, link key, per-link send order); a local event its date and
   scheduling index. *)
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
  let* profile = oneofl [ "none"; "lossy"; "wan" ] in
  let* fault_rate = oneofl [ 0.0; 0.3 ] in
  let* admission = oneofl [ `Fixed; `Burn; `Codel ] in
  let* autoscale = bool in
  let* service_us = oneofl [ 0.25; 2000.0 ] in
  let* standby = int_range 0 2 in
  let* seed = int_bound 1_000_000 in
  let+ split = oneofl (List.tl Exp_util.splits) in
  ( { Fig_fleet.default_params with
      Fig_fleet.nodes; pods; rate; profile = Nest_net.Netem.profile profile;
      fault_rate; admission; autoscale; service_us; standby;
      seed = Int64.of_int seed },
    split )

let print_fleet_config ((p : Fig_fleet.params), (shards, domains)) =
  Printf.sprintf
    "nodes=%d pods=%d rate=%g profile=%s fault-rate=%g admission=%s \
     autoscale=%b service-us=%g standby=%d seed=%Ld shards=%d domains=%d"
    p.nodes p.pods p.rate
    (match p.profile with Some pr -> pr.Nest_net.Netem.p_name | None -> "none")
    p.fault_rate
    (Fig_fleet.admission_to_string p.admission)
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

(* The chaos digest must survive the CLI's --shards knob: a fused-cell
   run is single-testbed, so folding it onto N shards must be a no-op
   for results. *)
let test_chaos_digest_with_shards () =
  let digest () =
    Chaos.digest (Chaos.run_cell ~quick:true ~mode:`Brfusion ~rate:0.5 ~seed:7L ())
  in
  let d1 = digest () in
  Nestfusion.Testbed.set_default_shards 2;
  Fun.protect
    ~finally:(fun () -> Nestfusion.Testbed.set_default_shards 1)
    (fun () ->
      Alcotest.(check string) "chaos digest, shards 1 = 2" d1 (digest ()))

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
        ] );
      ( "guards",
        [
          Alcotest.test_case "zero lookahead rejected" `Quick
            test_zero_lookahead_rejected;
          Alcotest.test_case "undersized delay rejected" `Quick
            test_undersized_delay_rejected;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_fleet_digest_identity;
          Alcotest.test_case "chaos digest with --shards" `Quick
            test_chaos_digest_with_shards;
        ] );
    ]
