open Nest_net

(* Deployment state is part of the config record.  It used to live in a
   module-global [(config * state) list] found by physical equality —
   never pruned, so assignments and hotplug counts from finished runs
   stayed reachable forever.  Inlining the state gives it exactly the
   config's lifetime. *)
type config = {
  vmm : Nest_virt.Vmm.t;
  bridge_name : string;
  ipam : Ipam.t;
  garp : bool;
  mutable assignments : (Stack.ns * Ipv4.t) list;
}

let host_bridge config = config.bridge_name
let pod_ipam config = config.ipam

let make_config ?(garp = false) vmm ~host_bridge =
  match Nest_virt.Vmm.bridge_addr vmm host_bridge with
  | None -> failwith ("Brfusion.make_config: no such bridge: " ^ host_bridge)
  | Some (gw, subnet) ->
    (* Reserve the gateway and every address already visible on the
       bridge's segment (the running VMs). *)
    let vm_addrs =
      List.concat_map
        (fun (_, vm) ->
          List.filter_map
            (fun (_, ip, _) ->
              if Ipv4.in_subnet subnet ip then Some ip else None)
            (Stack.addrs (Nest_virt.Vm.ns vm)))
        (Nest_virt.Vmm.vms vmm)
    in
    { vmm; bridge_name = host_bridge; garp;
      ipam = Ipam.create ~reserved:(gw :: vm_addrs) subnet;
      assignments = [] }

let plugin config =
  let add ~pod_name ~node ~publish:_ ~k =
    let vm = Nest_orch.Node.vm node in
    let gw, subnet =
      match Nest_virt.Vmm.bridge_addr config.vmm config.bridge_name with
      | Some a -> a
      | None -> failwith "Brfusion: bridge disappeared"
    in
    let netns = Nest_virt.Vm.new_netns vm ~name:pod_name () in
    let kubelet = Nest_orch.Kubelet.of_node node in
    (* Steps 1-3: ask the VMM for a NIC on the host bridge; it answers
       with the new device's MAC.  A refused/timed-out round-trip is
       retried with backoff (kubelet semantics); only an exhausted
       policy fails the pod. *)
    Nest_orch.Kubelet.hotplug_with_retry kubelet
      ~issue:(fun ~k ->
        Nest_virt.Vmm.hotplug_nic_mac config.vmm ~vm
          ~bridge:config.bridge_name ~id:("brf-" ^ pod_name) ~k)
      ~k:(fun r ->
        match r with
        | Error e ->
          let engine = Nest_virt.Host.engine (Nest_virt.Vmm.host config.vmm) in
          Nest_sim.Metrics.bump
            (Nest_sim.Metrics.counter
               (Nest_sim.Engine.metrics engine)
               "fault.pod_setup_failed");
          Nest_sim.Engine.trace_instant engine ~cat:"fault"
            ~name:"pod_setup_failed" ~arg:(pod_name ^ ": " ^ e) ()
        | Ok mac ->
          (* Step 4: the VM agent discovers the device by MAC, moves it
             into the pod namespace and configures it. *)
          let ip = Ipam.alloc config.ipam in
          Nest_orch.Kubelet.configure_nic kubelet ~netns ~mac ~ip ~subnet
            ~gateway:gw
            ~on_dead:(fun () ->
              (* The VM died between the VMM's Ok and the guest-visible
                 device: the lease was reserved for a NIC that will never
                 be configured.  Freeing it here is what keeps IPAM
                 leak-free under crash faults — before, the lease died
                 with the discarded waiter. *)
              Ipam.free config.ipam ip;
              let engine =
                Nest_virt.Host.engine (Nest_virt.Vmm.host config.vmm)
              in
              Nest_sim.Metrics.bump
                (Nest_sim.Metrics.counter
                   (Nest_sim.Engine.metrics engine)
                   "recovery.lease_released");
              Nest_sim.Engine.trace_instant engine ~cat:"fault"
                ~name:"lease_released" ~arg:pod_name ())
            ~k:(fun dev ->
              config.assignments <- (netns, ip) :: config.assignments;
              (* Announce the address segment-wide: the lease may be a
                 crash-GC'd reuse, and peers still holding the previous
                 holder's MAC would otherwise blackhole this pod until
                 their neighbour entries expire. *)
              if config.garp then Stack.garp netns dev ip;
              k netns)
            ())
      ()
  in
  { Nest_orch.Cni.add }

(* Crash-time lease GC: every pod namespace inside the dead VM held an
   address out of the bridge subnet's pool.  The pods are gone — their
   replacements allocate fresh leases on reschedule — so without this the
   pool shrinks by [k_pods] per crash until allocation fails. *)
let release_vm config ~vm =
  let inside = Nest_virt.Vm.netns_list vm in
  let mine, rest =
    List.partition
      (fun (ns, _) -> List.exists (fun n -> n == ns) inside)
      config.assignments
  in
  config.assignments <- rest;
  List.iter (fun (_, ip) -> Ipam.free config.ipam ip) mine;
  List.length mine

let pod_ip config ns =
  List.find_map
    (fun (n, ip) -> if n == ns then Some ip else None)
    config.assignments

let live_assignments config = List.length config.assignments
