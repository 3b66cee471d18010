type phases = {
  runtime_ns : Nest_sim.Time.ns;
  network_ns : Nest_sim.Time.ns;
  app_ns : Nest_sim.Time.ns;
}

let ns_of_ms ms = int_of_float (ms *. 1e6)

(* Phase parameters (ms).  Runtime setup is dominated by runc/containerd
   (namespace + cgroup + rootfs); the application phase by process start
   and first socket write.  Values sit in the range of Docker CE 18.09 on
   the paper's hardware. *)
let runtime_mean_ms = 130.0
let runtime_cv = 0.18
let app_mean_ms = 150.0
let app_cv = 0.22

(* Bridge+NAT network setup: veth pair creation, bridge attach, IPAM and
   iptables programming; the last grows with chain length. *)
let natnet_base_ms = 21.0
let natnet_cv = 0.35
let natnet_per_rule_ms = 0.45

let sample rng ~network =
  let ln mean cv = Nest_sim.Dist.lognormal_mean_cv rng ~mean ~cv in
  let runtime_ns = ns_of_ms (ln runtime_mean_ms runtime_cv) in
  let app_ns = ns_of_ms (ln app_mean_ms app_cv) in
  let network_ns =
    match network with
    | `Brfusion -> 0
    | `Bridge_nat rules ->
      ns_of_ms
        (ln natnet_base_ms natnet_cv
        +. (natnet_per_rule_ms *. float_of_int rules))
  in
  { runtime_ns; network_ns; app_ns }
