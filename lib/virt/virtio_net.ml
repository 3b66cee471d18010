open Nest_net

type t = {
  nic_id : string;
  guest_dev : Dev.t;
  vhost : Nest_sim.Exec.t;
  mutable plugged : bool;
  engine : Nest_sim.Engine.t;
  nic : string;
  (* The kick and the interrupt are events of their own, labeled
     "<nic>:virtio-kick" and "<nic>:virtio-irq", each registered on its
     first event.  The per-frame closures reach them, the engine and the
     delays through [t] alone. *)
  lbls : Nest_sim.Engine.label option array;  (* [kick], [irq] *)
  kick_ns : int;
  notify_ns : int;
}

let kick = 0
let irq = 1
let suffixes = [| ":virtio-kick"; ":virtio-irq" |]

let after t kind delay k =
  let lbl =
    match t.lbls.(kind) with
    | Some l -> l
    | None ->
      let l = Nest_sim.Engine.label t.engine (t.nic ^ suffixes.(kind)) in
      t.lbls.(kind) <- Some l;
      l
  in
  Nest_sim.Engine.schedule_labeled t.engine lbl
    ~at:(Nest_sim.Engine.now t.engine + delay) k

let create ~vm ~id ~mac ~queue ~vhost ?(l2 = Dev.Normal) () =
  let host = Vm.host vm in
  let cm = Host.cost_model host in
  let engine = Host.engine host in
  let nic = Vm.name vm ^ ":" ^ id in
  let guest_dev = Dev.create ~name:nic ~mac ~l2 () in
  let t =
    { nic_id = id; guest_dev; vhost; plugged = true; engine; nic;
      lbls = [| None; None |]; kick_ns = cm.Cost_model.virtio_kick_delay_ns;
      notify_ns = cm.Cost_model.virtio_notify_delay_ns }
  in
  (* The vhost worker is a hop like any other, so virtio crossings feed
     the same provenance/histogram machinery as kernel hops. *)
  let tx_hop =
    Hop.make vhost ~per_byte_ns:cm.Cost_model.vhost_per_byte_ns
      ~lead_ns:t.kick_ns
      ~name:(nic ^ ":virtio-tx")
      ~fixed_ns:cm.Cost_model.vhost_fixed_ns
  in
  let rx_hop =
    Hop.make vhost ~per_byte_ns:cm.Cost_model.vhost_per_byte_ns
      ~tail_ns:t.notify_ns
      ~name:(nic ^ ":virtio-rx")
      ~fixed_ns:cm.Cost_model.vhost_fixed_ns
  in
  (* Guest -> host: doorbell kick wakes the vhost worker, which dequeues
     from the TX vring and writes the tap.  The kick delay counts as
     queueing on the virtio-tx hop (its [lead_ns]: the enqueue predates
     the worker). *)
  Dev.set_tx guest_dev (fun frame ->
      if t.plugged then
        after t kick t.kick_ns (fun () ->
            if t.plugged then
              Hop.service_prov ?prov:(Frame.prov frame) tx_hop ~extra_ns:0
                ~bytes:(Frame.len frame)
                (fun () -> if t.plugged then Tap.queue_write queue frame)));
  (* Host -> guest: vhost fills the RX vring, then injects an interrupt;
     the injection latency is pure delay (no context occupied), recorded
     as the virtio-rx hop's tail. *)
  Tap.queue_set_backend queue (fun frame ->
      if t.plugged then
        Hop.service_prov ?prov:(Frame.prov frame) rx_hop ~extra_ns:0
          ~bytes:(Frame.len frame)
          (fun () ->
            if t.plugged then
              after t irq t.notify_ns (fun () ->
                  if t.plugged then Dev.deliver t.guest_dev frame)));
  t

let dev t = t.guest_dev
let id t = t.nic_id

let unplug t =
  t.plugged <- false;
  t.guest_dev.Dev.up <- false
