(** TCP segment wire format (the part that travels inside IP packets).

    Stream payload is represented by a byte count, and segments carry
    only bytes.  Application-message framing lives where real TCP keeps
    it, in the byte stream: each direction has one {!Framing} ring, to
    which the sender appends a message's absolute end offset when the
    application sends it, and from which the receiver pops every message
    its cumulative in-order position has reached.  A segment's
    [(seq, len)] is fixed when it is first sent and every retransmission
    reuses it, so that position passes a message's end offset exactly
    when the segment holding its last byte has arrived in order:
    reordering, retransmission and NAT rewriting deliver as in-band
    framing would.  The handshake hands each end its peer's ring: the SYN
    carries the client's, the SYN-ACK the server's. *)

(** One direction's message boundaries, in ascending end offset. *)
module Framing : sig
  type t

  val create : unit -> t

  val push : t -> off:int -> Payload.app_msg -> unit
  (** Append a message whose last byte ends at absolute stream offset
      [off]; offsets must rise strictly from one push to the next. *)

  val pop_upto : t -> int -> Payload.app_msg list
  (** Remove and return, in order, every message ending at or below the
      given offset. *)
end

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
  framing : Framing.t option;
      (** The sender's framing ring, on SYN and SYN-ACK only. *)
}

val header_bytes : int
(** 20 (options ignored). *)
