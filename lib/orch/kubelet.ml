open Nest_net

(* The agent is the node seen through its agent role: its counters live
   on the node, so no table outlives a testbed. *)
type t = Node.t

let of_node node = node
let node t = t

let configure_nic t ~netns ~mac ?ip ?subnet ?gateway ?on_dead ~k () =
  Nest_virt.Vm.wait_nic (Node.vm t) ~mac ?on_dead ~k:(fun dev ->
      Stack.attach netns dev;
      (match (ip, subnet) with
      | Some ip, Some subnet -> Stack.add_addr netns dev ip subnet
      | Some ip, None ->
        Stack.add_addr netns dev ip
          (Ipv4.cidr_of_string (Ipv4.to_string ip ^ "/32"))
      | None, _ -> ());
      (match gateway with
      | Some gw -> Route.add_default (Stack.routes netns) ~gateway:gw ~dev ()
      | None -> ());
      let c = Node.agent_counters t in
      c.Node.configured <- c.Node.configured + 1;
      k dev)
    ()

let pods_configured t = (Node.agent_counters t).Node.configured

(* Hot-plug with kubelet semantics: a failed or timed-out QMP round-trip
   is retried with exponential backoff instead of wedging pod setup.
   [issue] is the raw VMM operation ({!Nest_virt.Vmm.hotplug_nic_mac} or
   the Hostlo variant); each retry is counted on the engine's
   [recovery.hotplug_retries] metric so chaos runs can report it.  The
   final failure ({!Backoff.default} exhausted) is handed to [k] —
   deciding whether that loses the pod is the caller's business. *)
let hotplug_with_retry t ~(issue : k:((Mac.t, string) result -> unit) -> unit)
    ~k () =
  let engine =
    Nest_virt.Host.engine (Nest_virt.Vm.host (Node.vm t))
  in
  Backoff.retry engine Backoff.default
    ~on_retry:(fun ~attempt ~delay_ns ->
      (* Registered on first retry only: unfaulted runs must not grow a
         zero-valued row in existing metrics dumps. *)
      let metrics = Nest_sim.Engine.metrics engine in
      Nest_sim.Metrics.bump
        (Nest_sim.Metrics.counter metrics "recovery.hotplug_retries");
      (* The schedule as data (satellite of the exactly-once work): which
         attempt we are on and how long this retry sleeps, so a chaos
         report can read retry-storm intensity straight off the metrics
         ([fault.retry_attempt] vmax = deepest backoff reached,
         [fault.retry_delay_ms] total = wall time sunk into waiting). *)
      Nest_sim.Hdr.add
        (Nest_sim.Metrics.histogram metrics "fault.retry_attempt")
        (float_of_int attempt);
      Nest_sim.Hdr.add
        (Nest_sim.Metrics.histogram metrics "fault.retry_delay_ms")
        (float_of_int delay_ns /. 1e6);
      Nest_sim.Engine.trace_instant engine ~cat:"fault" ~name:"hotplug_retry"
        ~arg:(Node.name t) ())
    (fun ~attempt:_ ~k -> issue ~k)
    ~k

let status t =
  Printf.sprintf "%s: cpu %.1f/%.1f mem %.1f/%.1f, %d NIC(s) configured"
    (Node.name t)
    (Node.cpu_requested t)
    (Node.cpu_capacity t)
    (Node.mem_requested t)
    (Node.mem_capacity t)
    (pods_configured t)
