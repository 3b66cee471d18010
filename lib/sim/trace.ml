(* Fixed-layout event-tracing ring.

   The ring is preallocated and binary: two native ints per slot in a
   Bigarray (timestamp + a packed kind/cat/name word) plus a parallel
   string slot for the free-form arg.  Recording writes those three
   slots and bumps a counter — no event record, no boxing, no growth;
   category and subject strings are interned once into bounded
   per-trace pools and referenced by id thereafter.

   Readers walk the ring from the oldest retained slot to the newest,
   which is recording order.  Each engine owns its tracer (a sharded
   run gives every shard its own engine), so there is nothing to merge.

   Packed word layout:
     bits 0-1   kind        (begin / end / instant)
     bits 2-13  cat id      (≤ 4096 distinct categories)
     bits 14-29 name id     (≤ 65536 distinct subjects) *)

type kind = Span_begin | Span_end | Instant

type event = {
  ts : Time.ns;
  kind : kind;
  cat : string;
  name : string;
  arg : string;
}

(* Bounded intern pool: id -> string and back.  Categories and names are
   pooled separately because they pack into different bit widths. *)
type pool = {
  ids : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable nstrs : int;
  limit : int;
  (* One-entry memo on the last string interned, compared physically:
     per-packet call sites pass literal strings whose pointers are
     stable, so repeat interns skip the hash lookup entirely. *)
  mutable last_s : string;
  mutable last_id : int;
}

let pool_create limit =
  {
    ids = Hashtbl.create 64;
    strs = Array.make 16 "";
    nstrs = 0;
    limit;
    (* A fresh string no caller can be physically equal to. *)
    last_s = String.make 1 '\000';
    last_id = -1;
  }

let pool_intern_slow p s =
  (* [find], not [find_opt]: the hit path must not allocate a [Some]. *)
  let id =
    try Hashtbl.find p.ids s
    with Not_found ->
      let id = p.nstrs in
      if id >= p.limit then
        invalid_arg "Trace: intern pool exhausted (too many distinct names)";
      if id = Array.length p.strs then begin
        let ns = Array.make (2 * Array.length p.strs) "" in
        Array.blit p.strs 0 ns 0 id;
        p.strs <- ns
      end;
      p.strs.(id) <- s;
      p.nstrs <- id + 1;
      Hashtbl.add p.ids s id;
      id
  in
  p.last_s <- s;
  p.last_id <- id;
  id

let[@inline] pool_intern p s =
  if s == p.last_s then p.last_id else pool_intern_slow p s

type t = {
  words : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  args : string array;
  cap : int;   (* always a power of two *)
  mask : int;  (* cap - 1: slot = total land mask *)
  mutable total : int;  (* events ever recorded; next write at total land mask *)
  cats : pool;
  names : pool;
}

(* 24 bytes a slot: 384 MiB of ring at the ceiling. *)
let max_capacity = 1 lsl 24

(* Capacities are rounded up to a power of two so the ring index is a
   mask, not a division — [record_i] runs on every simulated event.
   Bounded by [max_capacity], so the doubling cannot overflow. *)
let pow2_ceil n =
  let c = ref 1 in
  while !c < n do
    c := !c lsl 1
  done;
  !c

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be > 0";
  if capacity > max_capacity then
    invalid_arg "Trace.create: capacity must be <= 2^24";
  let cap = pow2_ceil capacity in
  let words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * cap) in
  Bigarray.Array1.fill words 0;
  {
    words;
    args = Array.make cap "";
    cap;
    mask = cap - 1;
    total = 0;
    cats = pool_create 4096;
    names = pool_create 65536;
  }

let capacity t = t.cap
let recorded t = t.total
let dropped t = Stdlib.max 0 (t.total - t.cap)
let retained t = Stdlib.min t.total t.cap

let intern_cat t s = pool_intern t.cats s
let intern_name t s = pool_intern t.names s

let[@inline] kind_code = function Span_begin -> 0 | Span_end -> 1 | Instant -> 2
let kind_of_code = [| Span_begin; Span_end; Instant |]

(* The zero-allocation hot entry: ids pre-interned, nothing optional. *)
let record_i t ~ts kind ~cat ~name ~arg =
  let slot = t.total land t.mask in
  let w = kind_code kind lor (cat lsl 2) lor (name lsl 14) in
  Bigarray.Array1.unsafe_set t.words (2 * slot) ts;
  Bigarray.Array1.unsafe_set t.words ((2 * slot) + 1) w;
  (* Most events carry no arg; skipping the redundant "" -> "" store
     skips its write barrier too. *)
  if not (arg == Array.unsafe_get t.args slot) then
    Array.unsafe_set t.args slot arg;
  t.total <- t.total + 1

let instant t ~ts ~cat ~name ?(arg = "") () =
  record_i t ~ts Instant ~cat:(pool_intern t.cats cat)
    ~name:(pool_intern t.names name) ~arg

(* --- read view: oldest retained slot to newest --- *)

let iter t f =
  for pos = t.total - retained t to t.total - 1 do
    let slot = pos land t.mask in
    let w = Bigarray.Array1.unsafe_get t.words ((2 * slot) + 1) in
    f
      {
        ts = Bigarray.Array1.unsafe_get t.words (2 * slot);
        kind = kind_of_code.(w land 0x3);
        cat = t.cats.strs.((w lsr 2) land 0xFFF);
        name = t.names.strs.((w lsr 14) land 0xFFFF);
        arg = t.args.(slot);
      }
  done

let events t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let by_name t =
  let counts = Hashtbl.create 32 in
  iter t (fun e ->
      let key = e.cat ^ ":" ^ e.name in
      Hashtbl.replace counts key
        (1 + Option.value (Hashtbl.find_opt counts key) ~default:0));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare

let kind_string = function
  | Span_begin -> "begin"
  | Span_end -> "end"
  | Instant -> "instant"

let pp_event fmt e =
  Format.fprintf fmt "[%a] %-7s %s:%s%s" Time.pp e.ts (kind_string e.kind)
    e.cat e.name
    (if e.arg = "" then "" else " " ^ e.arg)

let pp_text ?limit fmt t =
  let n = retained t in
  let limit = Option.value limit ~default:n in
  let skipped = Stdlib.max 0 (n - limit) in
  Format.fprintf fmt "trace: %d recorded, %d in ring, %d dropped@."
    (recorded t) n (dropped t);
  if skipped > 0 then Format.fprintf fmt "  … %d earlier events elided@." skipped;
  let i = ref 0 in
  iter t (fun e ->
      if !i >= skipped then Format.fprintf fmt "  %a@." pp_event e;
      incr i)

(* Minimal JSON string escaping: the names used here are plain
   identifiers, but args are free-form. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"capacity\":%d,\"recorded\":%d,\"dropped\":%d,\"events\":["
       (capacity t) (recorded t) (dropped t));
  let i = ref 0 in
  iter t (fun e ->
      if !i > 0 then Buffer.add_char b ',';
      incr i;
      Buffer.add_string b
        (Printf.sprintf
           "{\"ts\":%d,\"kind\":\"%s\",\"cat\":\"%s\",\"name\":\"%s\",\"arg\":\"%s\"}"
           e.ts (kind_string e.kind) (json_escape e.cat) (json_escape e.name)
           (json_escape e.arg)));
  Buffer.add_string b "]}";
  Buffer.contents b
