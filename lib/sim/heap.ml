(* The engine's event queue: an implicit 4-ary min-heap on (prio, seq)
   beside an append-only sorted run.

   Every entry carries an int tag beside its value (the engine's label
   id), so a caller that needs a small integer per entry pays no boxing
   for it.

   A heap entry is three ints: its priority, its sequence number and the
   index of the cell that holds its value.  The heap stores its entries
   flat in one [int array], so sifting moves ints only (no write
   barrier) and a node's four children sit on two cache lines.  Heap
   values and their tags stay in one pool of cells (two parallel
   arrays) while queued, and a free stack recycles the cells.

   The run takes every push whose priority is at or above its tail's,
   in O(1), and keeps priorities, tags and values in three parallel
   arrays; the rest sift into the heap.  A pop takes the smaller head by
   (prio, seq).  The run needs no sequence numbers for that: at equal
   priorities every run entry precedes every heap entry.  (A heap entry
   went in while the run's tail was above its priority, and the run
   accepts that priority again only after emptying, which means popping
   that tail, which cannot happen while the heap entry waits.)
   Ascending schedules (a batch of timers, a far-future horizon event)
   thus never touch the heap.

   A vacated value cell is overwritten with the caller's [dummy] at
   once: a popped or cleared value must become unreachable from the
   queue immediately, or the arrays pin arbitrarily large closures (the
   engine stores event thunks here) until the cell happens to be reused.
   Once the arrays are sized, neither push nor pop allocates, tag
   included: tags are immediate ints, stored without a write barrier.

   Ordering contract: extraction is by (prio, seq), FIFO among equal
   priorities.  A push below the last popped priority (or below 0) is
   clamped up to it, so nothing is ever filed into the delivered past. *)

type 'a t = {
  dummy : 'a;
  mutable heap : int array;  (* children of entry i: 4i+1 .. 4i+4 *)
  mutable len : int;
  mutable cells : 'a array;  (* values of heap entries *)
  mutable cell_tags : int array;  (* their tags *)
  mutable free : int array;  (* free cell indices, [n_free] live *)
  mutable n_free : int;
  mutable r_prio : int array;  (* the run: live entries [r_head, r_tail) *)
  mutable r_tag : int array;
  mutable r_value : 'a array;
  mutable r_head : int;
  mutable r_tail : int;
  mutable next_seq : int;
  mutable floor : int;       (* last popped priority *)
  mutable popped_tag : int;  (* tag of the last popped entry *)
}

(* Capacities in entries (or cells).  The first arrays are small: most
   queues stay short, and a short queue dies young with its engine.
   Once outgrown, they jump past [Max_young_wosize] (256 words), so
   every later array goes straight to the major heap and growth never
   shows in a minor-words budget. *)
let next_capacity n = if n = 0 then 64 else Int.max 1024 (2 * n)

let create ~dummy () =
  { dummy; heap = [||]; len = 0; cells = [||]; cell_tags = [||];
    free = [||]; n_free = 0; r_prio = [||]; r_tag = [||]; r_value = [||];
    r_head = 0; r_tail = 0; next_seq = 0; floor = 0; popped_tag = 0 }

(* --- entries ------------------------------------------------------- *)

let[@inline] set (a : int array) i p s c =
  a.(3 * i) <- p;
  a.((3 * i) + 1) <- s;
  a.((3 * i) + 2) <- c

let[@inline] move a ~src ~dst =
  set a dst a.(3 * src) a.((3 * src) + 1) a.((3 * src) + 2)

let[@inline] before (p : int) (s : int) p' s' = p < p' || (p = p' && s < s')

(* Entry [i] of [a] orders before (p, s). *)
let[@inline] entry_before a i p s = before a.(3 * i) a.((3 * i) + 1) p s

(* Moves parents down until (p, s) fits the hole at [i], then fills it. *)
let rec sift_up a p s c i =
  let j = (i - 1) lsr 2 in
  if i > 0 && before p s a.(3 * j) a.((3 * j) + 1) then begin
    move a ~src:j ~dst:i;
    sift_up a p s c j
  end
  else set a i p s c

(* Moves the least child up until (p, s) fits the hole at [i]. *)
let rec sift_down a len p s c i =
  let first = (4 * i) + 1 in
  if first >= len then set a i p s c
  else begin
    let m = ref first in
    for k = first + 1 to Int.min (first + 3) (len - 1) do
      if entry_before a k a.(3 * !m) a.((3 * !m) + 1) then m := k
    done;
    let m = !m in
    if entry_before a m p s then begin
      move a ~src:m ~dst:i;
      sift_down a len p s c m
    end
    else set a i p s c
  end

(* The heap is full: a larger copy. *)
let grow_heap t =
  let a = Array.make (3 * next_capacity t.len) 0 in
  Array.blit t.heap 0 a 0 (3 * t.len);
  t.heap <- a

(* The run is full at its tail: slide the live entries down to 0, or
   grow it when more than half of it is live. *)
let make_room_run t =
  let n = t.r_tail - t.r_head in
  if t.r_head > 0 && 2 * n <= t.r_tail then begin
    Array.blit t.r_prio t.r_head t.r_prio 0 n;
    Array.blit t.r_tag t.r_head t.r_tag 0 n;
    Array.blit t.r_value t.r_head t.r_value 0 n;
    Array.fill t.r_value n (t.r_tail - n) t.dummy
  end
  else begin
    let cap = next_capacity t.r_tail in
    let p = Array.make cap 0 and g = Array.make cap 0
    and v = Array.make cap t.dummy in
    Array.blit t.r_prio t.r_head p 0 n;
    Array.blit t.r_tag t.r_head g 0 n;
    Array.blit t.r_value t.r_head v 0 n;
    t.r_prio <- p;
    t.r_tag <- g;
    t.r_value <- v
  end;
  t.r_head <- 0;
  t.r_tail <- n

(* --- cells --------------------------------------------------------- *)

(* Marks cells [from, capacity) free, the lowest on top. *)
let free_from t from =
  let cap = Array.length t.cells in
  for k = 0 to cap - from - 1 do
    t.free.(k) <- cap - 1 - k
  done;
  t.n_free <- cap - from

let store t tag v =
  if t.n_free = 0 then begin
    (* Every cell is in use. *)
    let n = Array.length t.cells in
    let cells = Array.make (next_capacity n) t.dummy in
    let tags = Array.make (Array.length cells) 0 in
    Array.blit t.cells 0 cells 0 n;
    Array.blit t.cell_tags 0 tags 0 n;
    t.cells <- cells;
    t.cell_tags <- tags;
    t.free <- Array.make (Array.length cells) 0;
    free_from t n
  end;
  let k = t.n_free - 1 in
  let c = t.free.(k) in
  t.n_free <- k;
  t.cells.(c) <- v;
  t.cell_tags.(c) <- tag;
  c

let take t c =
  let v = t.cells.(c) in
  t.popped_tag <- t.cell_tags.(c);
  t.cells.(c) <- t.dummy;
  t.free.(t.n_free) <- c;
  t.n_free <- t.n_free + 1;
  v

(* --- the queue ----------------------------------------------------- *)

let push t ~prio ~tag value =
  let prio = Int.max prio t.floor in
  if t.r_head = t.r_tail || prio >= t.r_prio.(t.r_tail - 1) then begin
    if t.r_tail = Array.length t.r_prio then make_room_run t;
    t.r_prio.(t.r_tail) <- prio;
    t.r_tag.(t.r_tail) <- tag;
    t.r_value.(t.r_tail) <- value;
    t.r_tail <- t.r_tail + 1
  end
  else begin
    let s = t.next_seq in
    t.next_seq <- s + 1;
    let c = store t tag value in
    if 3 * t.len = Array.length t.heap then grow_heap t;
    t.len <- t.len + 1;
    sift_up t.heap prio s c (t.len - 1)
  end

let size t = t.len + t.r_tail - t.r_head
let is_empty t = t.len = 0 && t.r_head = t.r_tail

let min_prio t =
  if t.r_head = t.r_tail then if t.len = 0 then -1 else t.heap.(0)
  else if t.len = 0 then t.r_prio.(t.r_head)
  else Int.min t.heap.(0) t.r_prio.(t.r_head)

let pop_run t =
  let h = t.r_head in
  let v = t.r_value.(h) in
  t.r_value.(h) <- t.dummy;
  t.popped_tag <- t.r_tag.(h);
  t.floor <- t.r_prio.(h);
  if h + 1 = t.r_tail then begin
    t.r_head <- 0;
    t.r_tail <- 0
  end
  else t.r_head <- h + 1;
  v

let pop_heap t =
  let a = t.heap in
  t.floor <- a.(0);
  let c = a.(2) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down a n a.(3 * n) a.((3 * n) + 1) a.((3 * n) + 2) 0;
  take t c

(* At equal priorities the run's head comes first (see the top). *)
let pop_value t =
  let h = t.r_head in
  if h = t.r_tail then
    if t.len = 0 then invalid_arg "Heap.pop_value: empty" else pop_heap t
  else if t.len = 0 || t.r_prio.(h) <= t.heap.(0) then pop_run t
  else pop_heap t

let popped_tag t = t.popped_tag

let pop t =
  if is_empty t then None
  else
    let p = min_prio t in
    Some (p, pop_value t)

let clear t =
  Array.fill t.cells 0 (Array.length t.cells) t.dummy;
  free_from t 0;
  Array.fill t.r_value t.r_head (t.r_tail - t.r_head) t.dummy;
  t.len <- 0;
  t.r_head <- 0;
  t.r_tail <- 0;
  t.floor <- 0
