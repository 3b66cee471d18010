(* Cross-cutting property tests: oracle comparisons and stateful
   invariants over randomized inputs. *)

open Nest_net
module Engine = Nest_sim.Engine
module Exec = Nest_sim.Exec
module Prng = Nest_sim.Prng
module Heap = Nest_sim.Heap

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Heap (the engine's event queue) vs sorted-list oracle under
   interleaved push/pop.  The queue clamps a push below the last popped
   priority up to it, and so does the model.  Each value is its push
   index, so a pop must return the exact (prio, seq) minimum, ties
   included; half the inputs draw from 4 priorities to make ties
   dense. *)

let test_heap_oracle =
  QCheck.Test.make ~name:"heap behaves like a sorted multiset" ~count:400
    QCheck.(
      oneof
        [ list (pair bool small_int);
          list (pair (map (fun k -> k = 0) (int_range 0 2)) (int_range 0 3)) ])
    (fun ops ->
      let h = Heap.create ~dummy:0 () in
      let model = ref [] and floor = ref 0 and pushed = ref 0 in
      List.for_all
        (fun (is_pop, v) ->
          if is_pop then
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some (p, seq), (m, mseq) :: rest ->
              model := rest;
              floor := m;
              p = m && seq = mseq
            | None, _ :: _ | Some _, [] -> false
          else begin
            Heap.push h ~tag:0 ~prio:v !pushed;
            model := List.sort compare ((Int.max v !floor, !pushed) :: !model);
            incr pushed;
            true
          end)
        ops
      && Heap.size h = List.length !model)

(* ------------------------------------------------------------------ *)
(* Route lookup vs naive longest-prefix oracle. *)

let random_cidr rng =
  let prefix = 8 + Prng.int rng 17 in
  let base = Ipv4.of_int (Prng.int rng 0x00ffffff lsl 8) in
  Ipv4.cidr_of_string (Ipv4.to_string base ^ "/" ^ string_of_int prefix)

let test_route_oracle =
  QCheck.Test.make ~name:"route lookup = naive longest-prefix scan" ~count:200
    QCheck.(pair int64 (int_range 1 20))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let rt = Route.create () in
      let entries =
        List.init n (fun i ->
            let c = random_cidr rng in
            let d = Dev.create ~name:(string_of_int i) ~mac:(Mac.of_int i) () in
            Route.add rt ~dst:c ~dev:d ();
            (c, d))
      in
      (* Entries were added in order; the most recent equal-prefix match
         wins, i.e. the *latest* in the list among maximal prefixes. *)
      let oracle ip =
        List.fold_left
          (fun acc (c, d) ->
            if Ipv4.in_subnet c ip then
              match acc with
              | Some (bc, _) when bc.Ipv4.prefix > c.Ipv4.prefix -> acc
              | _ -> Some (c, d)
            else acc)
          None entries
      in
      List.init 30 (fun _ -> Ipv4.of_int (Prng.int rng 0x7fffffff))
      |> List.for_all (fun ip ->
             match (Route.lookup rt ip, oracle ip) with
             | exception Not_found -> Option.is_none (oracle ip)
             | e, Some (_, d) -> e.Route.dev == d
             | _, None -> false))

(* ------------------------------------------------------------------ *)
(* Conntrack: chained DNAT + SNAT (the full nested path) stays
   invertible end to end. *)

let test_nested_nat_invertible =
  QCheck.Test.make ~name:"DNAT then SNAT composes and replies invert"
    ~count:200
    QCheck.(pair (int_range 1 60000) (int_range 1 60000))
    (fun (sport, dport) ->
      let host_ct = Conntrack.create () in
      let vm_ct = Conntrack.create () in
      let client = Ipv4.of_string "192.168.100.2" in
      let vm_ip = Ipv4.of_string "10.0.0.2" in
      let container = Ipv4.of_string "172.17.0.5" in
      let req =
        Packet.make ~src:client ~dst:vm_ip
          (Packet.Udp { src_port = sport; dst_port = dport; payload = Payload.raw 9 })
      in
      (* Host masquerades the client, the VM DNATs the published port. *)
      let at_host = Conntrack.snat host_ct req ~to_ip:(Ipv4.of_string "10.0.0.1") in
      let at_vm = Conntrack.dnat vm_ct at_host ~to_ip:container ~to_port:8080 in
      (* The container replies; both layers must invert. *)
      let rsp_src, rsp_dst = (at_vm.Packet.dst, at_vm.Packet.src) in
      let sp, dp = Option.get (Packet.ports at_vm) in
      let reply =
        Packet.make ~src:rsp_src ~dst:rsp_dst
          (Packet.Udp { src_port = dp; dst_port = sp; payload = Payload.raw 9 })
      in
      let after_vm = Conntrack.translate vm_ct reply in
      let after_host = Conntrack.translate host_ct after_vm in
      after_vm != reply && after_host != after_vm
      && Ipv4.equal after_host.Packet.dst client
      && (match Packet.ports after_host with
         | Some (sp', dp') -> sp' = dport && dp' = sport
         | None -> false))

(* ------------------------------------------------------------------ *)
(* Exec + Cpu_set: work conservation bounds. *)

let test_cpuset_work_conservation =
  QCheck.Test.make
    ~name:"makespan within [total/cores, total] for saturating load"
    ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 1 30) (int_range 1 1000)))
    (fun (cores, costs) ->
      let e = Engine.create () in
      let set = Nest_sim.Cpu_set.create ~cores in
      let finish = ref 0 in
      List.iteri
        (fun i cost ->
          let x = Exec.create ~cpus:set e ~name:(string_of_int i) in
          Exec.submit x ~cost (fun () -> finish := max !finish (Engine.now e)))
        costs;
      Engine.run e;
      let total = List.fold_left ( + ) 0 costs in
      let lower = total / cores and upper = total in
      !finish >= lower && !finish <= upper)

(* [Cpu_set] keeps its cores' busy dates sorted.  The model is the
   linear scan it replaced, each core at a fixed index: best fit among
   the cores free by [ready], else the earliest to free up.  Cores are
   interchangeable, so every step must book the same date and count the
   same busy cores.  A step books and commits the way [Exec] does
   (finish at the start plus a cost), books and commits below the
   booked date (which the interface allows), or books nothing; each
   then counts the cores busy at its date. *)

module Linear_cpu_set = struct
  let book busy ~ready =
    let best_free = ref (-1) and earliest = ref 0 in
    for i = 0 to Array.length busy - 1 do
      let v = busy.(i) in
      if v <= ready && (!best_free < 0 || v > busy.(!best_free)) then
        best_free := i;
      if v < busy.(!earliest) then earliest := i
    done;
    if !best_free >= 0 then !best_free else !earliest

  let busy_cores busy ~now =
    Array.fold_left (fun acc v -> if v > now then acc + 1 else acc) 0 busy
end

let test_cpuset_matches_linear_scan =
  QCheck.Test.make ~name:"sorted cpu set books like a linear scan" ~count:500
    QCheck.(
      pair (int_range 1 16)
        (list (triple (int_range 0 5) (int_range 0 400) (int_range 0 300))))
    (fun (cores, steps) ->
      let set = Nest_sim.Cpu_set.create ~cores in
      let model = Array.make cores 0 in
      let clock = ref 0 in
      List.for_all
        (fun (kind, dt, cost) ->
          let at = !clock + dt in
          clock := !clock + (dt / 8);
          let same_date =
            kind = 0
            ||
            let core = Nest_sim.Cpu_set.book set ~ready:at in
            let m = Linear_cpu_set.book model ~ready:at in
            let free = Nest_sim.Cpu_set.free_at set core in
            let same = free = model.(m) in
            let finish =
              if kind = 1 then Int.max 0 (free - cost)
              else Int.max at free + cost
            in
            Nest_sim.Cpu_set.commit set core ~finish;
            model.(m) <- finish;
            same
          in
          same_date
          && Nest_sim.Cpu_set.busy_cores set ~now:at
             = Linear_cpu_set.busy_cores model ~now:at)
        steps)

let test_exec_fifo_order =
  QCheck.Test.make ~name:"width-1 exec completes strictly in order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 100))
    (fun costs ->
      let e = Engine.create () in
      let x = Exec.create e ~name:"w" in
      let order = ref [] in
      List.iteri
        (fun i cost -> Exec.submit x ~cost (fun () -> order := i :: !order))
        costs;
      Engine.run e;
      List.rev !order = List.init (List.length costs) Fun.id)

(* ------------------------------------------------------------------ *)
(* TCP stream: arbitrary send-size sequences deliver exact totals and
   preserve message order. *)

type Payload.app_msg += Tag of int

let cheap_costs e =
  let sys_exec = Exec.create e ~name:"sys" in
  let soft_exec = Exec.create e ~name:"soft" in
  { Stack.tx = Hop.make sys_exec ~fixed_ns:80;
    rx = Hop.make soft_exec ~fixed_ns:80;
    forward = Hop.make soft_exec ~fixed_ns:40;
    nat = Hop.make soft_exec ~fixed_ns:40;
    nat_per_rule_ns = 10;
    local = Hop.make sys_exec ~fixed_ns:80;
    syscall = Hop.make sys_exec ~fixed_ns:40;
    wakeup_delay_ns = 0 }

let test_tcp_stream_framing =
  QCheck.Test.make
    ~name:"TCP delivers exact byte totals and in-order framing" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 15) (int_range 1 20_000))
    (fun sizes ->
      let e = Engine.create () in
      let a = Stack.create e ~name:"a" ~costs:(cheap_costs e) () in
      let b = Stack.create e ~name:"b" ~costs:(cheap_costs e) () in
      let hop = Hop.free e in
      let da, db =
        Veth.pair ~a_name:"a0" ~a_mac:(Mac.of_int 1) ~b_name:"b0"
          ~b_mac:(Mac.of_int 2) ~ab_hop:hop ~ba_hop:hop ()
      in
      Stack.attach a da;
      Stack.add_addr a da (Ipv4.of_string "10.1.0.1")
        (Ipv4.cidr_of_string "10.1.0.0/24");
      Stack.attach b db;
      Stack.add_addr b db (Ipv4.of_string "10.1.0.2")
        (Ipv4.cidr_of_string "10.1.0.0/24");
      let got_bytes = ref 0 and got_tags = ref [] in
      Stack.Tcp.listen b ~port:80 ~on_accept:(fun conn ->
          Stack.Tcp.set_on_receive conn (fun ~bytes ~msgs ->
              got_bytes := !got_bytes + bytes;
              List.iter
                (function Tag i -> got_tags := i :: !got_tags | _ -> ())
                msgs));
      let queue = ref (List.mapi (fun i s -> (i, s)) sizes) in
      let rec feed conn () =
        match !queue with
        | [] -> ()
        | (i, s) :: rest ->
          if Stack.Tcp.send conn ~size:s ~msg:(Tag i) () then begin
            queue := rest;
            feed conn ()
          end
          else Stack.Tcp.set_on_writable conn (feed conn)
      in
      ignore
        (Stack.Tcp.connect a ~dst:(Ipv4.of_string "10.1.0.2") ~port:80
           ~on_established:(fun conn -> feed conn ())
           ());
      Engine.run e;
      !got_bytes = List.fold_left ( + ) 0 sizes
      && List.rev !got_tags = List.init (List.length sizes) Fun.id)

(* ------------------------------------------------------------------ *)
(* Hostlo reflection invariant: frames-written x queues = reflections. *)

let test_hostlo_reflection_conservation =
  QCheck.Test.make ~name:"reflections = writes x queues" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 20))
    (fun (queues, writes) ->
      let e = Engine.create () in
      let tap =
        Tap.create e ~name:"hlo" ~mode:Tap.Loopback ~hop:(Hop.free e)
          ~mac:(Mac.of_int 7) ()
      in
      let qs =
        List.init queues (fun i ->
            let q = Tap.add_queue tap ~owner:(string_of_int i) in
            Tap.queue_set_backend q (fun _ -> ());
            q)
      in
      List.iteri
        (fun i q ->
          if i = 0 then
            for _ = 1 to writes do
              Tap.queue_write q
                (Frame.make ~src:(Mac.of_int 7) ~dst:Mac.broadcast
                   (Frame.Ipv4_body
                      (Packet.make ~src:Ipv4.localhost ~dst:Ipv4.localhost
                         (Packet.Udp
                            { src_port = 1; dst_port = 2;
                              payload = Payload.raw 10 }))))
            done)
        qs;
      Engine.run e;
      Tap.reflected tap = writes * queues)

(* ------------------------------------------------------------------ *)
(* Scheduler: returned node always fits; None only when nothing fits. *)

let test_scheduler_soundness =
  QCheck.Test.make ~name:"most-requested is sound and complete" ~count:100
    QCheck.(pair (int_range 1 6) (pair (float_range 0.1 8.0) (float_range 0.1 8.0)))
    (fun (nvms, (cpu, mem)) ->
      let tb = Nestfusion.Testbed.create ~num_vms:nvms () in
      let rng = Prng.create 9L in
      List.iter
        (fun n ->
          let c = Prng.range_float rng 0.0 4.0 in
          if Nest_orch.Node.fits n ~cpu:c ~mem:1.0 then
            Nest_orch.Node.reserve n ~cpu:c ~mem:1.0)
        tb.Nestfusion.Testbed.nodes;
      let nodes = tb.Nestfusion.Testbed.nodes in
      match Nest_orch.Scheduler.most_requested nodes ~cpu ~mem with
      | Some n -> Nest_orch.Node.fits n ~cpu ~mem
      | None -> not (List.exists (fun n -> Nest_orch.Node.fits n ~cpu ~mem) nodes))

(* ------------------------------------------------------------------ *)
(* Stats percentile is monotone in p. *)

let test_percentile_monotone =
  QCheck.Test.make ~name:"percentile is nondecreasing in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Nest_sim.Stats.create () in
      List.iter (Nest_sim.Stats.add s) xs;
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let vals = List.map (Nest_sim.Stats.percentile s) ps in
      List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 7) vals) (List.tl vals))

(* ------------------------------------------------------------------ *)
(* Netperf determinism: identical seeds give identical results. *)

let test_netperf_deterministic () =
  let run () =
    let tb, site = ref None, ref None in
    let t = Nestfusion.Testbed.create ~seed:1234L ~num_vms:1 () in
    tb := Some t;
    Nestfusion.Deploy.deploy_single t ~mode:`Nat ~name:"pod" ~entity:"srv"
      ~port:7000 ~k:(fun s -> site := Some s);
    Nestfusion.Testbed.run_until t (Nest_sim.Time.sec 1);
    let ep = Nest_workloads.App.of_single t (Option.get !site) in
    (Nest_workloads.Netperf.tcp_stream t ep ~msg_size:1024
       ~duration:(Nest_sim.Time.ms 100) ())
      .Nest_workloads.Netperf.mbps
  in
  let a = run () and b = run () in
  Alcotest.(check (float 1e-9)) "bit-identical across runs" a b

let () =
  Alcotest.run "properties"
    [ ( "oracles",
        [ qtest test_heap_oracle;
          qtest test_route_oracle;
          qtest test_nested_nat_invertible;
          qtest test_percentile_monotone ] );
      ( "scheduling",
        [ qtest test_cpuset_work_conservation;
          qtest test_exec_fifo_order;
          qtest test_scheduler_soundness;
          qtest test_cpuset_matches_linear_scan ] );
      ( "transport",
        [ qtest test_tcp_stream_framing;
          qtest test_hostlo_reflection_conservation;
          Alcotest.test_case "netperf determinism" `Quick
            test_netperf_deterministic ] ) ]
