(* L4 relay between testbeds on different shards.  See wire.mli.

   Both gateway handlers run as ordinary stack deliveries on their own
   shard; the only cross-shard step is the Sharded.send, whose delay
   equals the link's lookahead, so the wire itself contributes exactly
   one latency per direction and fixes each payload's delivery date at
   send time (the determinism contract). *)

module Sharded = Nest_sim.Sharded

type profile = {
  p_name : string;
  p_delay : Nest_sim.Time.ns;
  p_jitter : Nest_sim.Time.ns;
  p_loss : float;
}

let us = Nest_sim.Time.us
let ms = Nest_sim.Time.ms

let profiles =
  [ { p_name = "datacenter"; p_delay = us 25; p_jitter = us 5; p_loss = 0.0 };
    { p_name = "wan"; p_delay = ms 10; p_jitter = ms 1; p_loss = 0.001 };
    { p_name = "edge"; p_delay = ms 30; p_jitter = ms 5; p_loss = 0.005 };
    { p_name = "lossy"; p_delay = ms 5; p_jitter = ms 2; p_loss = 0.02 } ]

let profile name = List.find_opt (fun p -> String.equal p.p_name name) profiles
let profile_names () = List.map (fun p -> p.p_name) profiles

type impair = {
  im_loss : float;
  im_jitter : Nest_sim.Time.ns;
  im_rng : Nest_sim.Prng.t;
  mutable im_down : bool;
}

let impair ?profile ~rng () =
  let loss, jitter =
    match profile with None -> (0.0, 0) | Some p -> (p.p_loss, p.p_jitter)
  in
  if loss < 0.0 || loss > 1.0 then invalid_arg "Wire.impair: loss in [0,1]";
  if jitter < 0 then invalid_arg "Wire.impair: jitter >= 0";
  { im_loss = loss; im_jitter = jitter; im_rng = rng; im_down = false }

let set_down im down = im.im_down <- down

(* Decide one datagram's fate in the sending gateway's event: [None] to
   drop, [Some extra] to deliver with that much jitter on top of the
   base latency.  All PRNG draws happen here, on the source shard. *)
let impair_verdict = function
  | None -> Some 0
  | Some im ->
    if im.im_down then None
    else if im.im_loss > 0.0 && Nest_sim.Prng.float im.im_rng < im.im_loss
    then None
    else
      Some
        (if im.im_jitter > 0 then Nest_sim.Prng.int im.im_rng (im.im_jitter + 1)
         else 0)

let udp_relay sd ~client_side:(cshard, cns) ~server_side:(sshard, sns)
    ~client_port ~server_port ~target:(tip, tport) ~latency ?fwd_impair
    ?rev_impair () =
  let client = ref None (* last client src seen *) in
  let fwd =
    Sharded.link sd ~src:cshard ~dst:sshard ~lookahead:latency
      ~label:(Printf.sprintf "wire:%s>%s" (Stack.name cns) (Stack.name sns))
      ()
  in
  let rev =
    Sharded.link sd ~src:sshard ~dst:cshard ~lookahead:latency
      ~label:(Printf.sprintf "wire:%s>%s" (Stack.name sns) (Stack.name cns))
      ()
  in
  (* Tie the knot: the server-side handler needs the client-side socket
     for the return path, and both sockets capture [client]. *)
  let client_sock = ref None in
  let server_sock =
    Stack.Udp.bind sns ~port:server_port (fun sk ~src:_ ~src_port:_ payload ->
        (* A reply from the server: ship it home.  [client] is read on
           the client shard at delivery time — single-flow wires only
           ever hold one value by then. *)
        ignore sk;
        match impair_verdict rev_impair with
        | None -> ()
        | Some extra ->
          Sharded.send sd rev ~delay:(latency + extra) (fun () ->
              match (!client, !client_sock) with
              | Some (ip, p), Some csock ->
                Stack.Udp.sendto csock ~dst:ip ~dst_port:p payload
              | _ -> ()))
  in
  let csock =
    Stack.Udp.bind cns ~port:client_port (fun _ ~src ~src_port payload ->
        (match !client with
        | Some (ip, p) when Ipv4.equal ip src && p = src_port -> ()
        | _ -> client := Some (src, src_port));
        match impair_verdict fwd_impair with
        | None -> ()
        | Some extra ->
          Sharded.send sd fwd ~delay:(latency + extra) (fun () ->
              Stack.Udp.sendto server_sock ~dst:tip ~dst_port:tport payload))
  in
  client_sock := Some csock
