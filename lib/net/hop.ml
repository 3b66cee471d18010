(* A datapath hop: a fixed + per-byte service cost charged on an
   execution context.

   Hops are the unit of latency attribution.  [service] is the plain
   path — submit the cost, run the continuation at completion.
   [service_prov] additionally stamps an optional [Provenance.t] with
   (enqueue, start, end) for this hop and feeds the per-hop
   [hop.<name>.queue_ns] / [hop.<name>.service_ns] histograms; with no
   record present it degrades to exactly the plain path. *)

type t = {
  exec : Nest_sim.Exec.t;
  fixed_ns : int;
  per_byte_ns : float;
  lead_ns : int;
  tail_ns : int;
  mutable hop_name : string;  (* "" = anonymous: falls back to exec name *)
  mutable hists : (Nest_sim.Hdr.t * Nest_sim.Hdr.t) option;
      (* lazily resolved (queue_ns, service_ns) histograms *)
}

let make ?(per_byte_ns = 0.0) ?(lead_ns = 0) ?(tail_ns = 0) ?(name = "") exec
    ~fixed_ns =
  { exec; fixed_ns; per_byte_ns; lead_ns; tail_ns;
    hop_name = name; hists = None }

let name t =
  if t.hop_name <> "" then t.hop_name else Nest_sim.Exec.name t.exec

let set_name t n =
  t.hop_name <- n;
  t.hists <- None

let hists t =
  match t.hists with
  | Some h -> h
  | None ->
    let m = Nest_sim.Engine.metrics (Nest_sim.Exec.engine t.exec) in
    let n = name t in
    let h =
      ( Nest_sim.Metrics.histogram m ("hop." ^ n ^ ".queue_ns"),
        Nest_sim.Metrics.histogram m ("hop." ^ n ^ ".service_ns") )
    in
    t.hists <- Some h;
    h

let cost_ns t ~bytes =
  t.fixed_ns + int_of_float (t.per_byte_ns *. float_of_int bytes)

let service t ~bytes k =
  Nest_sim.Exec.submit t.exec ~cost:(cost_ns t ~bytes) k

(* Timed service.  [extra_ns] adds cost not in the hop's rate (syscall
   overhead, NAT surcharges).  The hop's [lead_ns] dates the enqueue
   that much before this call (e.g. a virtio kick delay), and its
   [tail_ns] extends the recorded completion past the CPU finish (e.g.
   an interrupt-notify delay) without charging CPU.  The continuation
   still runs at CPU finish — callers that model a tail delay schedule
   it themselves, and the record accounts for it.  Every argument is
   plain or passed through, so the no-record path boxes nothing. *)
let service_prov ?prov t ~extra_ns ~bytes k =
  let cost = cost_ns t ~bytes + extra_ns in
  match prov with
  | None -> Nest_sim.Exec.submit t.exec ~cost k
  | Some p ->
    let engine = Nest_sim.Exec.engine t.exec in
    let now = Nest_sim.Engine.now engine in
    let finish = Nest_sim.Exec.submit_timed t.exec ~cost k in
    let start_ns = finish - cost in
    let enqueue_ns = now - t.lead_ns in
    let end_ns = finish + t.tail_ns in
    Nest_sim.Provenance.add p ~hop:(name t) ~enqueue_ns ~start_ns ~end_ns;
    let qh, sh = hists t in
    Nest_sim.Hdr.add qh (float_of_int (start_ns - enqueue_ns));
    Nest_sim.Hdr.add sh (float_of_int (end_ns - start_ns))

let free engine =
  make (Nest_sim.Exec.create engine ~name:"free-hop") ~fixed_ns:0
