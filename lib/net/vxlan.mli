(** VXLAN tunnel endpoint (VTEP) — the mechanism under Docker's Overlay
    networks, the paper's only pre-existing option for cross-node pod
    traffic (§5.3, the "Overlay" baseline).

    The VTEP presents a device to attach to an overlay bridge.  Frames
    transmitted on it are encapsulated (inner Ethernet + 8-byte VXLAN
    header) into UDP datagrams sent through the underlay namespace's
    stack; datagrams received on the VTEP's UDP port are decapsulated and
    delivered back through the device.  Both directions pay dedicated
    encap/decap hops in the underlay kernel — the overlay's CPU tax. *)

type t

type Payload.app_msg += Vxlan_encap of Frame.t

val create :
  Stack.ns ->
  name:string ->
  vni:int ->
  encap_hop:Hop.t ->
  decap_hop:Hop.t ->
  t
(** Binds the VTEP socket, UDP port 4789, in the underlay namespace
    immediately. *)

val dev : t -> Dev.t
(** Overlay-side device (MTU 1450); enslave it to the overlay bridge. *)

val add_remote : t -> Ipv4.t -> unit
(** Adds a peer VTEP to the flood list.  The VTEP keeps no FDB: every
    frame, unicast included, is encapsulated once per peer. *)

val remove_remote : t -> Ipv4.t -> unit
(** Drops a peer VTEP from the flood list.  Called by the overlay CNI
    when a member node is pruned, so failover cannot keep encapsulating
    toward a dead VTEP. *)

val encapsulated : t -> int
(** Outer datagrams sent, one per remote (a flooded frame counts once
    per peer VTEP); the [hop.<name>.encap] metric counts inner frames. *)
