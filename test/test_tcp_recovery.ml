(* TCP loss recovery between two namespaces joined by a veth pair, under
   the random receive-side drop that chaos's corruption bursts apply:
   fast retransmit on light loss, and exactly-once delivery of bytes and
   of framed messages across random seeds and loss rates. *)

open Nest_net
module Engine = Nest_sim.Engine
module Exec = Nest_sim.Exec
module Time = Nest_sim.Time
module Prng = Nest_sim.Prng

let qtest = QCheck_alcotest.to_alcotest

let cheap_costs e =
  let sys_exec = Exec.create e ~name:"sys" in
  let soft_exec = Exec.create e ~name:"soft" in
  { Stack.tx = Hop.make sys_exec ~fixed_ns:100;
    rx = Hop.make soft_exec ~fixed_ns:100;
    forward = Hop.make soft_exec ~fixed_ns:50;
    nat = Hop.make soft_exec ~fixed_ns:50;
    nat_per_rule_ns = 10;
    local = Hop.make sys_exec ~fixed_ns:100;
    syscall = Hop.make sys_exec ~fixed_ns:50;
    wakeup_delay_ns = 0 }

let ip = Ipv4.of_string
let cidr = Ipv4.cidr_of_string

(* Two namespaces joined by a veth pair on 192.168.1.0/24. *)
let two_ns ~seed =
  let e = Engine.create ~seed () in
  let a = Stack.create e ~name:"a" ~costs:(cheap_costs e) () in
  let b = Stack.create e ~name:"b" ~costs:(cheap_costs e) () in
  let hop = Hop.free e in
  let da, db =
    Veth.pair ~a_name:"a0" ~a_mac:(Mac.of_int 0xa) ~b_name:"b0"
      ~b_mac:(Mac.of_int 0xb) ~ab_hop:hop ~ba_hop:hop ()
  in
  Stack.attach a da;
  Stack.add_addr a da (ip "192.168.1.1") (cidr "192.168.1.0/24");
  Stack.attach b db;
  Stack.add_addr b db (ip "192.168.1.2") (cidr "192.168.1.0/24");
  (e, a, b, da, db)

(* Random receive-side loss on a device: each frame it receives is
   dropped with probability [loss] and counted in its [drops]. *)
let set_loss d ~rng loss =
  Dev.set_corrupt d (Some (fun _ -> Prng.float rng < loss))

type Payload.app_msg += Tag of int

(* [send] runs on the established connection once loss is on; returns
   the connection, the bytes received and the tags received, in order. *)
let transfer_under_loss ~seed ~loss send =
  let e, a, b, da, db = two_ns ~seed in
  let rng = Prng.create (Int64.add seed 1000L) in
  (* Impair only data/ack frames after the connection establishes, so the
     handshake isn't (un)lucky — loss recovery is what's under test. *)
  let received = ref 0 and tags = ref [] in
  let conn = ref None in
  Stack.Tcp.listen b ~port:80 ~on_accept:(fun c ->
      Stack.Tcp.set_on_receive c (fun ~bytes ~msgs ->
          received := !received + bytes;
          List.iter (function Tag t -> tags := t :: !tags | _ -> ()) msgs));
  let c =
    Stack.Tcp.connect a ~dst:(ip "192.168.1.2") ~port:80
      ~on_established:(fun c -> conn := Some c)
      ()
  in
  Engine.run e;
  let c = match !conn with Some _ -> c | None -> failwith "no conn" in
  set_loss da ~rng loss;
  set_loss db ~rng loss;
  send c;
  (* Generous horizon: heavy loss needs several RTO cycles. *)
  Engine.run ~until:(Engine.now e + Time.sec 600) e;
  (c, !received, List.rev !tags)

let send_bytes n c = ignore (Stack.Tcp.send c ~size:n () : bool)

let test_fast_retransmit_recovers () =
  let c, received, _ =
    transfer_under_loss ~seed:11L ~loss:0.02 (send_bytes 120_000)
  in
  Alcotest.(check int) "exactly-once delivery" 120_000 received;
  Alcotest.(check bool) "losses were repaired" true
    (Stack.Tcp.retransmits c > 0)

let test_delivery_under_random_loss =
  QCheck.Test.make ~name:"TCP delivers exactly once under random loss"
    ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 0 15))
    (fun (seed, loss_pct) ->
      let bytes = 30_000 in
      let _, received, _ =
        transfer_under_loss ~seed:(Int64.of_int seed)
          ~loss:(float_of_int loss_pct /. 100.0)
          (send_bytes bytes)
      in
      received = bytes)

(* Messages of random sizes, each tagged with its index: through
   retransmission and out-of-order arrival every tag arrives exactly
   once, in send order, with all the bytes. *)
let test_framing_under_random_loss =
  QCheck.Test.make ~name:"TCP frames each message once, in order, under loss"
    ~count:12
    QCheck.(
      triple (int_range 1 1000) (int_range 0 15)
        (list_of_size Gen.(1 -- 40) (int_range 1 3000)))
    (fun (seed, loss_pct, sizes) ->
      let send c =
        List.iteri
          (fun i size ->
            if not (Stack.Tcp.send c ~size ~msg:(Tag i) ()) then
              failwith "send buffer full")
          sizes
      in
      let _, received, tags =
        transfer_under_loss ~seed:(Int64.of_int seed)
          ~loss:(float_of_int loss_pct /. 100.0)
          send
      in
      received = List.fold_left ( + ) 0 sizes
      && tags = List.init (List.length sizes) Fun.id)

let () =
  Alcotest.run "tcp_recovery"
    [ ( "tcp recovery",
        [ Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit_recovers;
          qtest test_delivery_under_random_loss;
          qtest test_framing_under_random_loss ] ) ]
