type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_seq : int;
  flags : flags;
  window : int;
  len : int;
  msgs : (int * Payload.app_msg) list;
}

let header_bytes = 20
