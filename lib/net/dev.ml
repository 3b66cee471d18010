type l2_mode = Normal | Reflector

type stats = {
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable drops : int;
}

type t = {
  name : string;
  mutable mac : Mac.t;
  mutable mtu : int;
  mutable up : bool;
  l2 : l2_mode;
  stats : stats;
  mutable tx_fn : Frame.t -> unit;
  mutable rx_fn : (Frame.t -> unit) option;
  mutable corrupt_fn : (Frame.t -> bool) option;
}

let create ?(mtu = 1500) ?(l2 = Normal) ~name ~mac () =
  let stats = { rx_packets = 0; tx_packets = 0; drops = 0 } in
  let t =
    { name; mac; mtu; up = true; l2; stats; tx_fn = (fun _ -> ());
      rx_fn = None; corrupt_fn = None }
  in
  t.tx_fn <- (fun _ -> stats.drops <- stats.drops + 1);
  t

let set_tx t f = t.tx_fn <- f
let set_rx t f = t.rx_fn <- Some f
let clear_rx t = t.rx_fn <- None
let set_up t up = t.up <- up
let set_corrupt t f = t.corrupt_fn <- f

let transmit t frame =
  if not t.up then t.stats.drops <- t.stats.drops + 1
  else begin
    t.stats.tx_packets <- t.stats.tx_packets + 1;
    t.tx_fn frame
  end

let corrupted t frame =
  match t.corrupt_fn with None -> false | Some f -> f frame

let deliver t frame =
  if not t.up then t.stats.drops <- t.stats.drops + 1
  else if corrupted t frame then
    (* FCS/checksum failure on receive: the frame is counted and
       discarded before anything above the device sees it. *)
    t.stats.drops <- t.stats.drops + 1
  else begin
    match t.rx_fn with
    | None -> t.stats.drops <- t.stats.drops + 1
    | Some f ->
      t.stats.rx_packets <- t.stats.rx_packets + 1;
      f frame
  end

let mss t = t.mtu - 40
