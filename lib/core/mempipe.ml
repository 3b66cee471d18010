open Nest_net
module Time = Nest_sim.Time

(* Copy costs: one memcpy into the shared ring on the sender's side, one
   out of it on the receiver's.  Notification is an inter-VM event-channel
   kick: pure latency. *)
let copy_fixed_ns = 350
let copy_per_byte_ns = 0.35
let notify_delay_ns = 2_800

type endpoint = {
  ep_vm : Nest_virt.Vm.t;
  mutable on_recv : size:int -> msg:Payload.app_msg option -> unit;
  chan : t;
}

and t = {
  mp_name : string;
  pod : string;
  host : Nest_virt.Host.t;
  shm : Pod_resources.Shm.t;
  mutable endpoints : endpoint list;
  mutable sent : int;
  mutable delivered : int;
}

let ring_kb = 256
let ring_bytes = ring_kb * 1024

let create host shm ~pod ~name =
  Pod_resources.Shm.register shm ~pod ~segment:name Pod_resources.Mempipe;
  { mp_name = name; pod; host; shm; endpoints = []; sent = 0; delivered = 0 }

let attach t vm =
  Pod_resources.Shm.attach t.shm ~pod:t.pod ~segment:t.mp_name
    ~vm:(Nest_virt.Vm.name vm);
  let ep =
    { ep_vm = vm; on_recv = (fun ~size:_ ~msg:_ -> ()); chan = t }
  in
  t.endpoints <- t.endpoints @ [ ep ];
  ep

let set_on_recv ep f = ep.on_recv <- f

let copy_cost size =
  copy_fixed_ns + int_of_float (copy_per_byte_ns *. float_of_int size)

let send ep ~size ?msg () =
  let t = ep.chan in
  if size > ring_bytes then
    failwith
      (Printf.sprintf "Mempipe.send: %d bytes exceed the %d-byte ring" size
         ring_bytes);
  t.sent <- t.sent + 1;
  let engine = Nest_virt.Host.engine t.host in
  (* Copy in, on the sender's guest kernel. *)
  Nest_sim.Exec.submit (Nest_virt.Vm.sys_exec ep.ep_vm) ~cost:(copy_cost size)
    (fun () ->
      List.iter
        (fun peer ->
          if peer != ep then
            (* Event-channel kick, then the peer copies out and wakes its
               consumer. *)
            Nest_sim.Engine.schedule engine ~delay:notify_delay_ns (fun () ->
                Nest_sim.Exec.submit
                  (Nest_virt.Vm.sys_exec peer.ep_vm)
                  ~cost:(copy_cost size)
                  (fun () ->
                    t.delivered <- t.delivered + 1;
                    peer.on_recv ~size ~msg)))
        t.endpoints)

let sent t = t.sent
let delivered t = t.delivered
