(** TCP segment wire format (the part that travels inside IP packets).

    Stream payload is represented by a byte count.  Application-message
    framing rides inside the byte stream in real TCP; here it is made
    explicit as [msgs], a list of [(absolute end offset, message)] pairs
    for every application message whose last byte falls within this
    segment.  Receivers deliver a message once their cumulative in-order
    position reaches its end offset, so reordering, retransmission and NAT
    rewriting all behave correctly. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

val flags_none : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : int;       (** First stream byte carried (absolute offset). *)
  ack_seq : int;   (** Next expected byte from the peer (if [flags.ack]). *)
  flags : flags;
  window : int;    (** Advertised receive window in bytes. *)
  len : int;       (** Payload bytes carried. *)
  msgs : (int * Payload.app_msg) list;
      (** Message boundaries completed inside this segment. *)
}

val header_bytes : int
(** 20 (options ignored). *)
