module Framing = struct
  (* A growable ring of parallel arrays; the capacity is 0 or a power of
     two.  A popped slot is overwritten with [vacant] so the ring keeps
     no delivered message alive. *)
  type t = {
    mutable offs : int array;
    mutable msgs : Payload.app_msg array;
    mutable head : int;
    mutable count : int;
  }

  let vacant = Payload.Opaque ""
  let create () = { offs = [||]; msgs = [||]; head = 0; count = 0 }

  let grow t =
    let cap = Array.length t.offs in
    let ncap = if cap = 0 then 8 else 2 * cap in
    let offs = Array.make ncap 0 and msgs = Array.make ncap vacant in
    for i = 0 to t.count - 1 do
      let j = (t.head + i) land (cap - 1) in
      offs.(i) <- t.offs.(j);
      msgs.(i) <- t.msgs.(j)
    done;
    t.offs <- offs;
    t.msgs <- msgs;
    t.head <- 0

  let push t ~off msg =
    if t.count = Array.length t.offs then grow t;
    let i = (t.head + t.count) land (Array.length t.offs - 1) in
    t.offs.(i) <- off;
    t.msgs.(i) <- msg;
    t.count <- t.count + 1

  let[@tail_mod_cons] rec pop_upto t off =
    if t.count > 0 && t.offs.(t.head) <= off then begin
      let m = t.msgs.(t.head) in
      t.msgs.(t.head) <- vacant;
      t.head <- (t.head + 1) land (Array.length t.offs - 1);
      t.count <- t.count - 1;
      m :: pop_upto t off
    end
    else []
end

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
  framing : Framing.t option;
}

let header_bytes = 20
