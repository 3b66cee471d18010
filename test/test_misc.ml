(* API-contract tests for small utility surfaces. *)

open Nest_net
module Time = Nest_sim.Time

let test_hop_cost_math () =
  let e = Nest_sim.Engine.create () in
  let x = Nest_sim.Exec.create e ~name:"w" in
  let h = Hop.make x ~fixed_ns:100 ~per_byte_ns:0.5 in
  Alcotest.(check int) "fixed + per-byte" 600 (Hop.cost_ns h ~bytes:1000);
  Alcotest.(check int) "zero bytes" 100 (Hop.cost_ns h ~bytes:0);
  let free = Hop.free e in
  Alcotest.(check int) "free hop costs nothing" 0 (Hop.cost_ns free ~bytes:1500)

let test_dev_mss () =
  let d = Dev.create ~name:"d" ~mac:(Mac.of_int 1) () in
  Alcotest.(check int) "default mtu 1500 -> mss 1460" 1460 (Dev.mss d);
  let j = Dev.create ~mtu:9000 ~name:"jumbo" ~mac:(Mac.of_int 2) () in
  Alcotest.(check int) "jumbo" 8960 (Dev.mss j)

let test_frame_pp () =
  let pkt =
    Packet.make ~src:(Ipv4.of_string "1.2.3.4") ~dst:(Ipv4.of_string "5.6.7.8")
      (Packet.Udp { src_port = 9; dst_port = 10; payload = Payload.raw 5 })
  in
  let f = Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2) (Frame.Ipv4_body pkt) in
  let s = Format.asprintf "%a" Frame.pp f in
  Alcotest.(check bool) "mentions addresses and proto" true
    (Astring.String.is_infix ~affix:"1.2.3.4" s
    && Astring.String.is_infix ~affix:"udp" s)

let test_qmp_pp () =
  Alcotest.(check string) "command names" "netdev_add"
    (Nest_virt.Qmp.command_name (Nest_virt.Qmp.Netdev_add { id = "x"; bridge = "b" }));
  let s =
    Format.asprintf "%a" Nest_virt.Qmp.pp_response
      (Nest_virt.Qmp.Ok_nic { mac = Mac.of_int 0x42 })
  in
  Alcotest.(check bool) "mac rendered" true
    (Astring.String.is_infix ~affix:"00:00:00:00:00:42" s);
  Alcotest.(check string) "error rendered" "error: boom"
    (Format.asprintf "%a" Nest_virt.Qmp.pp_response (Nest_virt.Qmp.Error "boom"))

let test_conntrack_pp () =
  let p =
    Packet.make ~src:(Ipv4.of_string "1.1.1.1") ~dst:(Ipv4.of_string "2.2.2.2")
      (Packet.Udp { src_port = 5; dst_port = 6; payload = Payload.raw 1 })
  in
  let s = Format.asprintf "%a" Conntrack.pp_flow (Conntrack.flow_of_packet p) in
  Alcotest.(check string) "flow rendering" "udp 1.1.1.1:5>2.2.2.2:6" s

let test_modes_lists () =
  Alcotest.(check int) "3 single modes" 3 (List.length Nestfusion.Modes.all_single);
  Alcotest.(check int) "4 pair modes" 4 (List.length Nestfusion.Modes.all_pair);
  Alcotest.(check string) "NAT spelling" "NAT"
    (Nestfusion.Modes.pair_to_string `NatX)

let test_registry_complete () =
  (* Every table and figure of the evaluation is addressable. *)
  let expected =
    [ "fig2"; "table1"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "table2";
      "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15" ]
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true
        (Nest_experiments.Registry.find id <> None))
    expected;
  Alcotest.(check int) "paper entries" 15
    (List.length Nest_experiments.Registry.all);
  Alcotest.(check bool) "ablations exist" true
    (List.length Nest_experiments.Registry.ablations >= 4);
  Alcotest.(check bool) "unknown id rejected" true
    (Nest_experiments.Registry.find "fig99" = None)

let test_exp_util_pct () =
  Alcotest.(check (float 1e-9)) "increase" 50.0 (Nest_experiments.Exp_util.pct 3.0 2.0);
  Alcotest.(check (float 1e-9)) "decrease" (-50.0) (Nest_experiments.Exp_util.pct 1.0 2.0);
  Alcotest.(check (float 1e-9)) "zero base" 0.0 (Nest_experiments.Exp_util.pct 1.0 0.0)

let () =
  Alcotest.run "misc"
    [ ( "utilities",
        [ Alcotest.test_case "hop cost" `Quick test_hop_cost_math;
          Alcotest.test_case "dev mss" `Quick test_dev_mss;
          Alcotest.test_case "frame pp" `Quick test_frame_pp;
          Alcotest.test_case "qmp pp" `Quick test_qmp_pp;
          Alcotest.test_case "conntrack pp" `Quick test_conntrack_pp;
          Alcotest.test_case "modes" `Quick test_modes_lists;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "exp pct" `Quick test_exp_util_pct ] ) ]
