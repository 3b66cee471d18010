open Nest_net

(* Per-deployment state lives inside the config itself.  An earlier
   version kept a module-global [(config * state) list] keyed by physical
   equality; entries were never pruned, so every configured run leaked its
   TAPs and fraction counts for the life of the process, and a config
   recreated at the same address could even observe a predecessor's
   state.  With the tables in the record, dropping the config drops the
   state. *)
type config = {
  vmm : Nest_virt.Vmm.t;
  taps : (string, Tap.t) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  standby : int;
  (* Pre-provisioned endpoints ready to claim, keyed by (vm, pod).  Each
     entry remembers the incarnation it was plugged into: a crash makes
     the banked endpoints worthless (the devices died with the QEMU
     process), and comparing handles physically is how stale entries are
     recognised and dropped. *)
  pool : (string * string, (Nest_virt.Vm.t * Mac.t) list) Hashtbl.t;
  mutable sb_seq : int;
  (* Standby plugs use globally fresh QMP ids ("hlo-sb-<n>"): each plug
     is a distinct intended state change, so it must never collide with
     a previous one's idempotency key in the VMM's reply journal. *)
}

let make_config ?(standby = 0) vmm =
  { vmm; taps = Hashtbl.create 8; counts = Hashtbl.create 8; standby;
    pool = Hashtbl.create 8; sb_seq = 0 }

let lo_subnet = Ipv4.cidr_of_string "127.0.0.0/8"

let ensure_tap config pod_name =
  match Hashtbl.find_opt config.taps pod_name with
  | Some tap -> tap
  | None ->
    let tap =
      Nest_virt.Vmm.create_hostlo config.vmm ~name:("hostlo-" ^ pod_name)
    in
    Hashtbl.replace config.taps pod_name tap;
    tap

let pool_entries config key =
  Option.value (Hashtbl.find_opt config.pool key) ~default:[]

let standby_ready config ~vm_name ~pod_name =
  List.length (pool_entries config (vm_name, pod_name))

(* One background standby plug.  Runs through the same kubelet retry
   machinery as a real pod's hot-plug, but OFF any pod's critical path:
   under management-plane faults the retries burn backoff time here,
   while a rescheduled fraction claims an endpoint that already exists. *)
let provision_one config ~node ~pod_name =
  let vm = Nest_orch.Node.vm node in
  let tap = ensure_tap config pod_name in
  let kubelet = Nest_orch.Kubelet.of_node node in
  config.sb_seq <- config.sb_seq + 1;
  let id = Printf.sprintf "hlo-sb-%d" config.sb_seq in
  let key = (Nest_virt.Vm.name vm, pod_name) in
  Nest_orch.Kubelet.hotplug_with_retry kubelet
    ~issue:(fun ~k ->
      Nest_virt.Vmm.hotplug_hostlo_endpoint_mac config.vmm ~vm
        ~hostlo:(Tap.name tap) ~id ~k)
    ~k:(fun r ->
      let engine = Nest_virt.Host.engine (Nest_virt.Vmm.host config.vmm) in
      match r with
      | Error e ->
        Nest_sim.Metrics.bump
          (Nest_sim.Metrics.counter
             (Nest_sim.Engine.metrics engine)
             "fault.standby_provision_failed");
        Nest_sim.Engine.trace_instant engine ~cat:"fault"
          ~name:"standby_provision_failed" ~arg:(pod_name ^ ": " ^ e) ()
      | Ok mac ->
        (* Bank the endpoint only if this incarnation is still the live
           one — a crash during the plug makes the device fiction. *)
        (match Nest_virt.Vmm.find_vm config.vmm (Nest_virt.Vm.name vm) with
        | Some v when v == vm ->
          Hashtbl.replace config.pool key (pool_entries config key @ [ (vm, mac) ])
        | _ -> ()))
    ()

let preprovision config ~node ~pod_name =
  if config.standby > 0 then begin
    let vm_name = Nest_virt.Vm.name (Nest_orch.Node.vm node) in
    let have = standby_ready config ~vm_name ~pod_name in
    for _ = have + 1 to config.standby do
      provision_one config ~node ~pod_name
    done
  end

let plugin config =
  let add ~pod_name ~node ~publish:_ ~k =
    let vm = Nest_orch.Node.vm node in
    let tap = ensure_tap config pod_name in
    let n = Option.value (Hashtbl.find_opt config.counts pod_name) ~default:0 in
    Hashtbl.replace config.counts pod_name (n + 1);
    (* The fraction gets no regular lo: the Hostlo endpoint *is* its
       localhost. *)
    let netns =
      Nest_virt.Vm.new_netns vm
        ~name:(Printf.sprintf "%s@%s" pod_name (Nest_virt.Vm.name vm))
        ~with_loopback:false ()
    in
    let kubelet = Nest_orch.Kubelet.of_node node in
    let finish_with_mac mac =
      (* The VM agent configures the endpoint as the fraction's
         localhost (§4.1 step 4). *)
      Nest_orch.Kubelet.configure_nic kubelet ~netns ~mac ~ip:Ipv4.localhost
        ~subnet:lo_subnet
        ~k:(fun _dev -> k netns)
        ()
    in
    let claim () =
      let key = (Nest_virt.Vm.name vm, pod_name) in
      match pool_entries config key with
      | (vm', mac) :: rest when vm' == vm ->
        Hashtbl.replace config.pool key rest;
        Some mac
      | _ :: _ ->
        (* Banked into a previous incarnation: the devices died with it. *)
        Hashtbl.remove config.pool key;
        None
      | [] -> None
    in
    match (if config.standby > 0 then claim () else None) with
    | Some mac ->
      let engine = Nest_virt.Host.engine (Nest_virt.Vmm.host config.vmm) in
      Nest_sim.Metrics.bump
        (Nest_sim.Metrics.counter
           (Nest_sim.Engine.metrics engine)
           "recovery.standby_claimed");
      Nest_sim.Engine.trace_instant engine ~cat:"fault" ~name:"standby_claimed"
        ~arg:pod_name ();
      finish_with_mac mac;
      (* Refill off the critical path: the next claimant should find the
         pool warm again. *)
      provision_one config ~node ~pod_name
    | None ->
      Nest_orch.Kubelet.hotplug_with_retry kubelet
        ~issue:(fun ~k ->
          Nest_virt.Vmm.hotplug_hostlo_endpoint_mac config.vmm ~vm
            ~hostlo:(Tap.name tap)
            ~id:(Printf.sprintf "hlo-%s-%d" pod_name n)
            ~k)
        ~k:(fun r ->
          match r with
          | Error e ->
            let engine =
              Nest_virt.Host.engine (Nest_virt.Vmm.host config.vmm)
            in
            Nest_sim.Metrics.bump
              (Nest_sim.Metrics.counter
                 (Nest_sim.Engine.metrics engine)
                 "fault.pod_setup_failed");
            Nest_sim.Engine.trace_instant engine ~cat:"fault"
              ~name:"pod_setup_failed" ~arg:(pod_name ^ ": " ^ e) ()
          | Ok mac -> finish_with_mac mac)
        ()
  in
  { Nest_orch.Cni.add }

let tap_of_pod config pod = Hashtbl.find_opt config.taps pod

let fractions config pod =
  Option.value (Hashtbl.find_opt config.counts pod) ~default:0
