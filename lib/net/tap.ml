type mode = Normal | Loopback

type queue = {
  q_owner : string;
  mutable backend : (Frame.t -> unit) option;
  tap : t;
}

and t = {
  tap_name : string;
  tap_mode : mode;
  engine : Nest_sim.Engine.t;
  hop : Hop.t;
  per_queue_ns : int;
  host_side : Dev.t;
  mutable queue_list : queue list;
  mutable reflected : int;
  mutable exhausted : bool;
  hop_ctr : Nest_sim.Metrics.counter;
}

let note_hop t =
  Nest_sim.Metrics.bump t.hop_ctr;
  Nest_sim.Engine.trace_instant t.engine ~cat:"hop" ~name:t.tap_name ()

let host_input t frame =
  (* Host side -> guest(s).  With several queues the kernel hashes flows;
     we deliver to the first queue, which matches single-queue virtio. *)
  if not t.exhausted then begin
  note_hop t;
  match t.queue_list with
  | [] -> ()
  | q :: _ -> (
    match q.backend with
    | None -> ()
    | Some backend ->
      Hop.service_prov ?prov:(Frame.prov frame) t.hop ~extra_ns:0
        ~bytes:(Frame.len frame) (fun () -> backend frame))
  end

let create engine ~name ~mode ~hop ?(per_queue_ns = 0) ~mac () =
  Hop.set_name hop name;
  let host_side = Dev.create ~name ~mac () in
  let t =
    { tap_name = name; tap_mode = mode; engine; hop; per_queue_ns; host_side;
      queue_list = []; reflected = 0; exhausted = false;
      hop_ctr =
        Nest_sim.Metrics.counter (Nest_sim.Engine.metrics engine)
          ("hop." ^ name) }
  in
  Dev.set_tx host_side (fun frame -> host_input t frame);
  t

let name t = t.tap_name
let mac t = t.host_side.Dev.mac

let host_dev t =
  match t.tap_mode with
  | Normal -> t.host_side
  | Loopback -> failwith "Tap.host_dev: loopback taps have no host side"

let add_queue t ~owner =
  let q = { q_owner = owner; backend = None; tap = t } in
  t.queue_list <- t.queue_list @ [ q ];
  q

let remove_queues t ~owner =
  let gone, kept =
    List.partition (fun q -> String.equal q.q_owner owner) t.queue_list
  in
  t.queue_list <- kept;
  List.iter (fun q -> q.backend <- None) gone;
  List.length gone

let queues t = t.queue_list
let queue_owner q = q.q_owner
let queue_set_backend q f = q.backend <- Some f
let queue_attached q = List.memq q q.tap.queue_list
let set_exhausted t b = t.exhausted <- b

let queue_write q frame =
  let t = q.tap in
  if (not t.exhausted) && queue_attached q then begin
  note_hop t;
  match t.tap_mode with
  | Normal ->
    (* Guest -> host side: the frame enters whatever the host attached
       (bridge port input), after the tap's processing cost. *)
    Hop.service_prov ?prov:(Frame.prov frame) t.hop ~extra_ns:0
      ~bytes:(Frame.len frame) (fun () -> Dev.deliver t.host_side frame)
  | Loopback ->
    (* §4.2: "it sends back any received Ethernet frame to all of its
       queues" — including the originating one.  Each reflected copy takes
       its own provenance branch. *)
    let deliver_all () =
      List.iter
        (fun q' ->
          match q'.backend with
          | None -> ()
          | Some backend ->
            t.reflected <- t.reflected + 1;
            backend (Frame.branch_prov frame))
        t.queue_list
    in
    Hop.service_prov ?prov:(Frame.prov frame) t.hop
      ~extra_ns:(t.per_queue_ns * List.length t.queue_list)
      ~bytes:(Frame.len frame) deliver_all
  end

let reflected t = t.reflected
