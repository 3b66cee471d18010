type entry = { port : Dev.t; mutable last_seen : Nest_sim.Time.ns }

type t = {
  engine : Nest_sim.Engine.t;
  br_name : string;
  hop : Hop.t;
  self : Dev.t;
  mutable port_list : Dev.t list;
  fdb_tbl : entry Mac.Tbl.t;
  hop_ctr : Nest_sim.Metrics.counter;
}

(* FDB entry lifetime: 300 s, the Linux default. *)
let aging_ns = Nest_sim.Time.sec 300

let fresh t e = Nest_sim.Engine.now t.engine - e.last_seen <= aging_ns

(* Flood/broadcast copies each take their own provenance branch so every
   egress accumulates only its own downstream hops. *)
let flood t port frame =
  List.iter
    (fun p -> if p != port then Dev.transmit p (Frame.branch_prov frame))
    t.port_list

(* Top-level, so a frame's hop allocates one continuation and no helper
   closures. *)
let forward t port frame () =
  if Mac.is_broadcast frame.Frame.dst then begin
    flood t port frame;
    if port != t.self then Dev.deliver t.self frame
  end
  else if Mac.equal frame.Frame.dst t.self.Dev.mac then begin
    if port != t.self then Dev.deliver t.self frame
  end
  else begin
    match Mac.Tbl.find t.fdb_tbl frame.Frame.dst with
    | e when fresh t e -> if e.port != port then Dev.transmit e.port frame
    | _ | (exception Not_found) ->
      (* Unknown destination: flood. *)
      flood t port frame
  end

let input t port frame =
  Nest_sim.Metrics.bump t.hop_ctr;
  Nest_sim.Engine.trace_instant t.engine ~cat:"hop" ~name:t.br_name ();
  (* Source learning. *)
  if not (Mac.is_broadcast frame.Frame.src) then begin
    match Mac.Tbl.find t.fdb_tbl frame.Frame.src with
    | e when e.port == port -> e.last_seen <- Nest_sim.Engine.now t.engine
    | _ | (exception Not_found) ->
      Mac.Tbl.replace t.fdb_tbl frame.Frame.src
        { port; last_seen = Nest_sim.Engine.now t.engine }
  end;
  Hop.service_prov ?prov:(Frame.prov frame) t.hop ~extra_ns:0
    ~bytes:(Frame.len frame) (forward t port frame)

let create engine ~name ~hop ~self_mac =
  Hop.set_name hop name;
  let self = Dev.create ~name:(name ^ "(self)") ~mac:self_mac () in
  let t =
    { engine; br_name = name; hop; self; port_list = [];
      fdb_tbl = Mac.Tbl.create 32;
      hop_ctr =
        Nest_sim.Metrics.counter (Nest_sim.Engine.metrics engine)
          ("hop." ^ name) }
  in
  (* Stack transmissions on the self device enter the switching plane. *)
  Dev.set_tx self (fun frame -> input t self frame);
  t

let name t = t.br_name
let self_dev t = t.self

let attach t dev =
  t.port_list <- t.port_list @ [ dev ];
  Dev.set_rx dev (fun frame -> input t dev frame)

let detach t dev =
  t.port_list <- List.filter (fun p -> p != dev) t.port_list;
  Dev.clear_rx dev;
  (* Drop any learning entries that point at the removed port. *)
  let stale =
    Mac.Tbl.fold
      (fun mac e acc -> if e.port == dev then mac :: acc else acc)
      t.fdb_tbl []
  in
  List.iter (Mac.Tbl.remove t.fdb_tbl) stale

let ports t = t.port_list

let fdb t =
  Mac.Tbl.fold
    (fun mac e acc -> if fresh t e then (mac, e.port.Dev.name) :: acc else acc)
    t.fdb_tbl []
  |> List.sort compare
