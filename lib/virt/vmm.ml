open Nest_net
module Engine = Nest_sim.Engine
module Metrics = Nest_sim.Metrics
module Time = Nest_sim.Time

type backend =
  | Tap_backend of Tap.t
  | Hostlo_backend of Tap.t

type fault_decision =
  | Pass
  | Fail of string
  | Timeout of Nest_sim.Time.ns
  | Partial_timeout of Nest_sim.Time.ns

(* The VM lifecycle state machine.  Transitions along these edges are the
   ONLY way device state attached to a VM may change:

     Running ──► Crashing ──► Down ──► Restarting ──► Running
                    ▲                      │
                    └──────────────────────┘  (crash during restart)

   - device plug/unplug ([perform]) requires [Running];
   - teardown (taps off bridges, Hostlo queue detach, journal flush)
     happens only inside the [Crashing] window of [crash_vm];
   - [Restarting] is a real window ([boot_delay] of virtual time), so a
     crash landing inside it is an explicit edge, not interleaving luck:
     it cancels the pending boot via a generation counter.  *)
type lifecycle = Running | Crashing | Down | Restarting

let lifecycle_name = function
  | Running -> "running"
  | Crashing -> "crashing"
  | Down -> "down"
  | Restarting -> "restarting"

let legal_edge = function
  | Running, Crashing
  | Crashing, Down
  | Down, Restarting
  | Restarting, Running
  | Restarting, Crashing -> true
  | _ -> false

(* Boot-time parameters, retained so a crashed VM can be restarted with
   the identity the orchestrator knows it by. *)
type vm_spec = {
  spec_vcpus : int;
  spec_mem_mb : int;
  spec_bridge : string;
  spec_ip : Ipv4.t;
}

type t = {
  vmm_host : Host.t;
  vmm_rng : Nest_sim.Prng.t;
  mutable vm_list : (string * Vm.t) list;
  mutable hostlo_list : (string * Tap.t) list;
  netdevs : (string * string, backend) Hashtbl.t;
  nic_tbl : (string * string, Virtio_net.t) Hashtbl.t;
  (* Host-side taps serving each VM, with the bridge they are enslaved
     to — what crash_vm must tear down. *)
  mutable vm_taps : (string * (string * Tap.t)) list;
  mutable spec_list : (string * vm_spec) list;
  mutable qmp_fault : (vm:string -> Qmp.command -> fault_decision) option;
  (* Reply journal: (vm, idempotency key) -> the reply of every command
     that APPLIED.  A retried command answers from here instead of
     re-applying, so "timeout" can mean "applied but ack lost" without
     the retry double-plugging a device.  Cleared per VM on crash: a
     restarted VM is a fresh QEMU process with a fresh QMP socket. *)
  journal : (string * string, Qmp.response) Hashtbl.t;
  lifecycle_tbl : (string, lifecycle) Hashtbl.t;
  (* Invalidates a pending [Restarting] boot when a crash lands first. *)
  boot_gen : (string, int) Hashtbl.t;
  mutable illegal : int;
}

let create host =
  { vmm_host = host; vmm_rng = Nest_sim.Prng.split (Host.rng host);
    vm_list = []; hostlo_list = []; netdevs = Hashtbl.create 16;
    nic_tbl = Hashtbl.create 16; vm_taps = []; spec_list = [];
    qmp_fault = None; journal = Hashtbl.create 16;
    lifecycle_tbl = Hashtbl.create 8; boot_gen = Hashtbl.create 8;
    illegal = 0 }

let set_qmp_fault t f = t.qmp_fault <- f

let host t = t.vmm_host
let vms t = t.vm_list
let find_vm t name = List.assoc_opt name t.vm_list

let lifecycle t name = Hashtbl.find_opt t.lifecycle_tbl name
let illegal_transitions t = t.illegal

(* The single state mutator.  A request along an illegal edge is refused,
   and counted — the caller's state is left untouched, and the
   [illegal_transitions] counter turning non-zero is a bug by definition
   (every public operation guards its preconditions first). *)
let transition t ~name to_ =
  let engine = Host.engine t.vmm_host in
  let ok from =
    Hashtbl.replace t.lifecycle_tbl name to_;
    Engine.trace_instant engine ~cat:"vmm" ~name:"lifecycle"
      ~arg:(Printf.sprintf "%s: %s -> %s" name from (lifecycle_name to_))
      ();
    true
  in
  match Hashtbl.find_opt t.lifecycle_tbl name with
  | None when to_ = Running -> ok "(new)" (* first boot enters at Running *)
  | Some from when legal_edge (from, to_) -> ok (lifecycle_name from)
  | None | Some _ ->
    t.illegal <- t.illegal + 1;
    false

let bridge_self_addr t br =
  let hns = Host.ns t.vmm_host in
  let self = Bridge.self_dev br in
  List.find_map
    (fun (d, ip, cidr) -> if d == self then Some (ip, cidr) else None)
    (Stack.addrs hns)

let make_tap_on_bridge t ~name ~bridge =
  match Host.find_bridge t.vmm_host bridge with
  | None -> Error (Printf.sprintf "no such bridge: %s" bridge)
  | Some br ->
    let tap =
      Tap.create (Host.engine t.vmm_host) ~name ~mode:Tap.Normal
        ~hop:(Host.tap_hop t.vmm_host) ~mac:(Host.fresh_mac t.vmm_host) ()
    in
    Bridge.attach br (Tap.host_dev tap);
    Ok tap

let create_vm t ~name ~vcpus ~mem_mb ~bridge ~ip =
  if List.mem_assoc name t.vm_list then
    failwith ("Vmm.create_vm: already running: " ^ name);
  (* Entering [Running] must come through the machine: a fresh name is
     the entry point; a restart completes Restarting -> Running; a name
     that is Down (manual re-create without restart_vm) passes through
     Restarting with a zero-length boot. *)
  (match Hashtbl.find_opt t.lifecycle_tbl name with
  | None | Some Restarting -> ()
  | Some Down -> ignore (transition t ~name Restarting)
  | Some (Running | Crashing) ->
    failwith ("Vmm.create_vm: illegal lifecycle state for boot: " ^ name));
  let br =
    match Host.find_bridge t.vmm_host bridge with
    | Some br -> br
    | None -> failwith ("Vmm.create_vm: no such bridge: " ^ bridge)
  in
  let gw, subnet =
    match bridge_self_addr t br with
    | Some a -> a
    | None -> failwith ("Vmm.create_vm: bridge has no address: " ^ bridge)
  in
  let vm = Vm.create t.vmm_host ~name ~vcpus ~mem_mb in
  let tap =
    match make_tap_on_bridge t ~name:("tap-" ^ name) ~bridge with
    | Ok tap -> tap
    | Error e -> failwith ("Vmm.create_vm: " ^ e)
  in
  t.vm_taps <- t.vm_taps @ [ (name, (bridge, tap)) ];
  if not (List.mem_assoc name t.spec_list) then
    t.spec_list <-
      t.spec_list
      @ [ (name,
           { spec_vcpus = vcpus; spec_mem_mb = mem_mb; spec_bridge = bridge;
             spec_ip = ip }) ];
  let queue = Tap.add_queue tap ~owner:name in
  let vhost = Host.new_vhost_exec t.vmm_host ~name:("vhost-" ^ name) in
  let nic =
    Virtio_net.create ~vm ~id:"eth0" ~mac:(Host.fresh_mac t.vmm_host) ~queue
      ~vhost ()
  in
  let dev = Virtio_net.dev nic in
  Stack.attach (Vm.ns vm) dev;
  Stack.add_addr (Vm.ns vm) dev ip subnet;
  Route.add_default (Stack.routes (Vm.ns vm)) ~gateway:gw ~dev ();
  Hashtbl.replace t.nic_tbl (name, "eth0") nic;
  Vm.nic_arrived vm dev;
  t.vm_list <- t.vm_list @ [ (name, vm) ];
  ignore (transition t ~name Running);
  vm

let bridge_addr t name =
  match Host.find_bridge t.vmm_host name with
  | None -> None
  | Some br -> bridge_self_addr t br

let create_hostlo t ~name =
  let cm = Host.cost_model t.vmm_host in
  let hop =
    Hop.make (Host.soft_exec t.vmm_host)
      ~fixed_ns:cm.Cost_model.hostlo_reflect_fixed_ns
      ~per_byte_ns:cm.Cost_model.hostlo_reflect_per_byte_ns
  in
  let tap =
    Tap.create (Host.engine t.vmm_host) ~name ~mode:Tap.Loopback ~hop
      ~per_queue_ns:cm.Cost_model.hostlo_per_queue_fixed_ns
      ~mac:(Host.fresh_mac t.vmm_host) ()
  in
  t.hostlo_list <- t.hostlo_list @ [ (name, tap) ];
  tap

let find_hostlo t name = List.assoc_opt name t.hostlo_list

(* Any tap the VMM knows — VM-serving taps and Hostlo reflectors — by
   interface name, for fault targeting. *)
let find_tap t name =
  match
    List.find_map
      (fun (_, (_, tap)) ->
        if String.equal (Tap.name tap) name then Some tap else None)
      t.vm_taps
  with
  | Some tap -> Some tap
  | None ->
    List.find_map
      (fun (_, tap) ->
        if String.equal (Tap.name tap) name then Some tap else None)
      t.hostlo_list

let sample_latency t ~mean ~cv =
  int_of_float (Nest_sim.Dist.lognormal_mean_cv t.vmm_rng ~mean ~cv)

let qmp_delay t =
  let cm = Host.cost_model t.vmm_host in
  sample_latency t ~mean:cm.Cost_model.qmp_roundtrip_mean_ns
    ~cv:cm.Cost_model.qmp_roundtrip_cv

let probe_delay t =
  let cm = Host.cost_model t.vmm_host in
  sample_latency t ~mean:cm.Cost_model.guest_probe_mean_ns
    ~cv:cm.Cost_model.guest_probe_cv

let perform t ~vm cmd =
  let vm_name = Vm.name vm in
  match cmd with
  | Qmp.Netdev_add { id; bridge } -> (
    match make_tap_on_bridge t ~name:(vm_name ^ ":" ^ id) ~bridge with
    | Error e -> Qmp.Error e
    | Ok tap ->
      t.vm_taps <- t.vm_taps @ [ (vm_name, (bridge, tap)) ];
      Hashtbl.replace t.netdevs (vm_name, id) (Tap_backend tap);
      Qmp.Ok_done)
  | Qmp.Netdev_add_hostlo { id; hostlo } -> (
    match find_hostlo t hostlo with
    | None -> Qmp.Error ("no such hostlo: " ^ hostlo)
    | Some tap ->
      Hashtbl.replace t.netdevs (vm_name, id) (Hostlo_backend tap);
      Qmp.Ok_done)
  | Qmp.Device_add { id; netdev } -> (
    match Hashtbl.find_opt t.netdevs (vm_name, netdev) with
    | None -> Qmp.Error ("no such netdev: " ^ netdev)
    | Some backend ->
      let tap, l2 =
        match backend with
        | Tap_backend tap -> (tap, Dev.Normal)
        | Hostlo_backend tap -> (tap, Dev.Reflector)
      in
      let mac =
        (* Every queue of a Hostlo tap shares the tap's MAC: it is one
           interface multiplexed between VMs (§4.2). *)
        match backend with
        | Hostlo_backend tap -> Tap.mac tap
        | Tap_backend _ -> Host.fresh_mac t.vmm_host
      in
      let queue = Tap.add_queue tap ~owner:vm_name in
      let vhost =
        Host.new_vhost_exec t.vmm_host
          ~name:(Printf.sprintf "vhost-%s-%s" vm_name id)
      in
      let nic = Virtio_net.create ~vm ~id ~mac ~queue ~vhost ~l2 () in
      Hashtbl.replace t.nic_tbl (vm_name, id) nic;
      (* The frontend exists as soon as QMP returns; the guest sees the
         device once its virtio probe completes. *)
      Engine.schedule (Host.engine t.vmm_host) ~delay:(probe_delay t)
        (fun () -> Vm.nic_arrived vm (Virtio_net.dev nic));
      Qmp.Ok_nic { mac })
  | Qmp.Device_del { id } -> (
    match Hashtbl.find_opt t.nic_tbl (vm_name, id) with
    | None -> Qmp.Error ("no such device: " ^ id)
    | Some nic ->
      Virtio_net.unplug nic;
      Hashtbl.remove t.nic_tbl (vm_name, id);
      Qmp.Ok_done)

(* [vm] is the process the caller is talking to: a handle from before a
   crash never becomes current again (the restart builds a fresh Vm.t),
   so late QMP against a dead incarnation answers "vm not running" even
   if a same-named VM is back up. *)
let vm_current t vm =
  let name = Vm.name vm in
  (match List.assoc_opt name t.vm_list with
  | Some v -> v == vm
  | None -> false)
  && Hashtbl.find_opt t.lifecycle_tbl name = Some Running

let execute t ~vm cmd k =
  let engine = Host.engine t.vmm_host in
  let vm_name = Vm.name vm in
  let key = Qmp.idempotency_key cmd in
  (* Exactly-once apply: a journal hit means this logical operation
     already changed device state and only its ack was lost — answer the
     recorded reply instead of plugging a second device. *)
  let apply () =
    match Hashtbl.find_opt t.journal (vm_name, key) with
    | Some r ->
      Metrics.bump (Metrics.counter (Engine.metrics engine) "qmp.dedupe");
      Engine.trace_instant engine ~cat:"qmp" ~name:"dedupe"
        ~arg:(key ^ " @ " ^ vm_name) ();
      r
    | None ->
      let r = perform t ~vm cmd in
      (match r with
      | Qmp.Error _ -> ()
      | _ ->
        Hashtbl.replace t.journal (vm_name, key) r;
        (* A successful del/add pair invalidates its counterpart, so the
           journal always describes the device state actually applied. *)
        (match cmd with
        | Qmp.Device_add { id; _ } ->
          Hashtbl.remove t.journal (vm_name, "device_del:" ^ id)
        | Qmp.Device_del { id } ->
          Hashtbl.remove t.journal (vm_name, "device_add:" ^ id)
        | _ -> ()));
      r
  in
  let finish delay r =
    Engine.schedule engine ~delay (fun () ->
        let r = if vm_current t vm then r () else Qmp.Error "vm not running" in
        k r)
  in
  (* Fault injection on the management plane.  The decision is made at
     issue time so an injected timeout delays the caller without holding
     a monitor lock; [None] (the default) is the unfaulted path. *)
  let decision =
    match t.qmp_fault with
    | None -> Pass
    | Some f -> f ~vm:vm_name cmd
  in
  match decision with
  | Pass -> finish (qmp_delay t) apply
  | Fail e -> finish (qmp_delay t) (fun () -> Qmp.Error e)
  | Timeout ns ->
    finish ns (fun () -> Qmp.Error (Qmp.command_name cmd ^ ": timeout"))
  | Partial_timeout ns ->
    (* The dangerous case: the VMM applies the command after the normal
       round-trip, but the ack is lost — the caller learns only via its
       own (longer) timeout and will retry a command that already took
       effect.  The journal above is what makes that retry safe. *)
    Engine.schedule engine ~delay:(qmp_delay t) (fun () ->
        if vm_current t vm then ignore (apply ()));
    finish ns (fun () ->
        Qmp.Error (Qmp.command_name cmd ^ ": timeout (reply lost)"))

(* The two-command hot-plug protocols surface failures to the caller as
   [Error] instead of raising: under fault injection a refused or timed-
   out QMP round-trip is an operational event the orchestrator retries
   (Kubelet backoff), not a programming error. *)
let hotplug_nic_mac t ~vm ~bridge ~id ~k =
  execute t ~vm (Qmp.Netdev_add { id = id ^ "-nd"; bridge }) (fun r1 ->
      match r1 with
      | Qmp.Error e -> k (Result.Error ("netdev_add: " ^ e))
      | Qmp.Ok_done | Qmp.Ok_nic _ ->
        execute t ~vm (Qmp.Device_add { id; netdev = id ^ "-nd" }) (fun r2 ->
            match r2 with
            | Qmp.Ok_nic { mac } -> k (Result.Ok mac)
            | Qmp.Error e -> k (Result.Error ("device_add: " ^ e))
            | Qmp.Ok_done -> k (Result.Error "device_add: no mac")))

let require_mac what k = function
  | Result.Ok mac -> k mac
  | Result.Error e -> failwith (what ^ ": " ^ e)

let hotplug_nic t ~vm ~bridge ~id ~k =
  hotplug_nic_mac t ~vm ~bridge ~id
    ~k:(require_mac "hotplug_nic" (fun mac -> Vm.wait_nic vm ~mac ~k ()))

let hotplug_hostlo_endpoint_mac t ~vm ~hostlo ~id ~k =
  execute t ~vm (Qmp.Netdev_add_hostlo { id = id ^ "-nd"; hostlo }) (fun r1 ->
      match r1 with
      | Qmp.Error e -> k (Result.Error ("netdev_add_hostlo: " ^ e))
      | Qmp.Ok_done | Qmp.Ok_nic _ ->
        execute t ~vm (Qmp.Device_add { id; netdev = id ^ "-nd" }) (fun r2 ->
            match r2 with
            | Qmp.Ok_nic { mac } -> k (Result.Ok mac)
            | Qmp.Error e -> k (Result.Error ("device_add: " ^ e))
            | Qmp.Ok_done -> k (Result.Error "device_add: no mac")))

let hotplug_hostlo_endpoint t ~vm ~hostlo ~id ~k =
  hotplug_hostlo_endpoint_mac t ~vm ~hostlo ~id
    ~k:
      (require_mac "hotplug_hostlo_endpoint" (fun mac ->
           Vm.wait_nic vm ~mac ~k ()))

let unplug_nic t ~vm ~id =
  execute t ~vm (Qmp.Device_del { id }) (fun _ -> ())

(* ------------------------------------------------------------------ *)
(* VM crash / restart (fault injection)                                *)

let bump_boot_gen t name =
  let g = Option.value (Hashtbl.find_opt t.boot_gen name) ~default:0 in
  Hashtbl.replace t.boot_gen name (g + 1);
  g + 1

(* Everything the QEMU process's death takes with it, torn down inside
   the [Crashing] window. *)
let teardown t ~name vm =
  Vm.kill vm;
  (* Host side of the guest NICs: frontends die with the QEMU process. *)
  Hashtbl.iter
    (fun (vm_name, _) nic ->
      if String.equal vm_name name then Virtio_net.unplug nic)
    t.nic_tbl;
  Hashtbl.filter_map_inplace
    (fun (vm_name, _) nic ->
      if String.equal vm_name name then None else Some nic)
    t.nic_tbl;
  Hashtbl.filter_map_inplace
    (fun (vm_name, _) nd ->
      if String.equal vm_name name then None else Some nd)
    t.netdevs;
  (* The reply journal dies with the QMP socket: the replacement QEMU
     process knows nothing of its predecessor's applied commands, so
     post-restart re-plugs with recycled ids must re-apply. *)
  Hashtbl.filter_map_inplace
    (fun (vm_name, _) r -> if String.equal vm_name name then None else Some r)
    t.journal;
  (* The VM's taps disappear from their bridges; any queue the VM held
     on a Hostlo reflector is detached so reflection stops feeding a
     dead vhost (§4.2 teardown). *)
  let mine, rest =
    List.partition (fun (owner, _) -> String.equal owner name) t.vm_taps
  in
  t.vm_taps <- rest;
  List.iter
    (fun (_, (bridge, tap)) ->
      ignore (Tap.remove_queues tap ~owner:name);
      match Host.find_bridge t.vmm_host bridge with
      | Some br -> Bridge.detach br (Tap.host_dev tap)
      | None -> ())
    mine;
  List.iter
    (fun (_, hlo) -> ignore (Tap.remove_queues hlo ~owner:name))
    t.hostlo_list;
  t.vm_list <- List.remove_assoc name t.vm_list

let crash_vm t ~name =
  match lifecycle t name with
  | Some Running ->
    ignore (bump_boot_gen t name);
    if transition t ~name Crashing then begin
      (match List.assoc_opt name t.vm_list with
      | Some vm -> teardown t ~name vm
      | None -> ());
      ignore (transition t ~name Down)
    end
  | Some Restarting ->
    (* Crash-during-restart: the replacement QEMU process dies before
       its boot completes.  There is no device state yet — the edge's
       whole job is to cancel the pending boot. *)
    ignore (bump_boot_gen t name);
    if transition t ~name Crashing then ignore (transition t ~name Down)
  | Some Crashing | Some Down | None -> ()
  (* nothing running to kill: crash of a Down/unknown VM is a no-op, and
     [Crashing] is unobservable from the engine (teardown is atomic in
     virtual time) *)

(* How long a restart's boot occupies [Restarting]. *)
let boot_delay = Time.ms 100

let restart_vm t ~name ~k () =
  let engine = Host.engine t.vmm_host in
  match (List.assoc_opt name t.spec_list, lifecycle t name) with
  | None, _ -> false
  | Some _, (Some Running | Some Crashing | Some Restarting | None) -> false
  | Some s, Some Down ->
    if not (transition t ~name Restarting) then false
    else begin
      let gen = bump_boot_gen t name in
      Engine.schedule engine ~label:"vmm:boot" ~delay:boot_delay (fun () ->
          (* A crash (or a newer restart) inside the boot window bumped
             the generation: this boot was cancelled by that edge. *)
          if
            Hashtbl.find_opt t.boot_gen name = Some gen
            && lifecycle t name = Some Restarting
          then begin
            let vm =
              create_vm t ~name ~vcpus:s.spec_vcpus ~mem_mb:s.spec_mem_mb
                ~bridge:s.spec_bridge ~ip:s.spec_ip
            in
            (* Gratuitous ARP on boot: the address is reused but the MACs
               are fresh, so peers on the bridge segment must drop their
               stale mapping or keep blackholing the restarted VM. *)
            Stack.arp_flush ~ip:s.spec_ip (Host.ns t.vmm_host);
            List.iter
              (fun (_, v) ->
                if not (v == vm) then Stack.arp_flush ~ip:s.spec_ip (Vm.ns v))
              t.vm_list;
            k vm
          end);
      true
    end

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)

(* Cross-table consistency the lifecycle machine is supposed to enforce.
   Chaos runs and the no-dangling tests assert this comes back empty
   after any fault schedule. *)
let check_invariants t =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let running name = lifecycle t name = Some Running in
  List.iter
    (fun (name, _) ->
      if not (running name) then
        add "%s in vm_list but lifecycle %s" name
          (match lifecycle t name with
          | Some s -> lifecycle_name s
          | None -> "(none)"))
    t.vm_list;
  Hashtbl.iter
    (fun name st ->
      if st = Running && not (List.mem_assoc name t.vm_list) then
        add "%s lifecycle running but not in vm_list" name;
      if st = Crashing then add "%s stuck in crashing" name)
    t.lifecycle_tbl;
  Hashtbl.iter
    (fun (vm, id) _ ->
      if not (running vm) then add "device %s:%s outlives its VM" vm id)
    t.nic_tbl;
  Hashtbl.iter
    (fun (vm, id) _ ->
      if not (running vm) then add "netdev %s:%s outlives its VM" vm id)
    t.netdevs;
  List.iter
    (fun (owner, (_, tap)) ->
      if not (running owner) then
        add "host tap %s outlives its VM %s" (Tap.name tap) owner)
    t.vm_taps;
  Hashtbl.iter
    (fun (vm, key) _ ->
      if not (running vm) then add "journal entry %s for dead VM %s" key vm)
    t.journal;
  List.iter
    (fun (hname, tap) ->
      List.iter
        (fun q ->
          let owner = Tap.queue_owner q in
          if not (running owner) then
            add "hostlo %s queue dangles for dead VM %s" hname owner)
        (Tap.queues tap))
    t.hostlo_list;
  if t.illegal > 0 then
    add "%d illegal lifecycle transition(s) attempted" t.illegal;
  List.sort compare !out
