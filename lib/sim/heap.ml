(* The engine's event queue: an implicit 4-ary min-heap on (prio, seq),
   plus one front slot outside it.

   Every entry carries an int tag beside its value (the engine's label
   id), so a caller that needs a small integer per entry pays no boxing
   for it.

   The front slot holds at most one entry, and that entry comes before
   every heap entry in (prio, seq) order.  A push earlier than
   everything queued takes the slot: with the slot empty, that is a
   priority below the heap's minimum (an equal priority loses on seq);
   with it full, a priority below the slot's, and the slot's entry then
   moves into the heap with its seq kept.  Any other push goes to the
   heap.  A pop takes the slot first.  The simulator's datapath is a
   chain of events, each scheduling the next hop earlier than anything
   already queued, so in a closed loop most entries pass through the
   slot and never touch the heap's arrays.

   A heap entry is three ints: its priority, its sequence number and the
   index of the cell that holds its value.  The heap stores its entries
   flat in one [int array], so sifting moves ints only (no write
   barrier) and a node's four children sit on two cache lines.  Values
   and their tags stay in one pool of cells (two parallel arrays) while
   queued, and a free stack recycles the cells.

   A vacated value cell or slot is overwritten with the caller's [dummy]
   at once: a popped value must become unreachable from the queue
   immediately, or the queue pins arbitrarily large closures (the engine
   stores event thunks here) until the cell happens to be reused.  Once the arrays are sized, neither push nor pop allocates,
   tag included: tags are immediate ints, stored without a write
   barrier.

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
  mutable next_seq : int;
  mutable floor : int;       (* last popped priority *)
  mutable popped_tag : int;  (* tag of the last popped entry *)
  (* The front slot; [slot_prio = -1] when it is empty. *)
  mutable slot_prio : int;
  mutable slot_seq : int;
  mutable slot_tag : int;
  mutable slot_value : 'a;
}

(* Capacities in entries (or cells).  The first arrays are small: most
   queues stay short, and a short queue dies young with its engine.
   Once outgrown, they jump past [Max_young_wosize] (256 words), so
   every later array goes straight to the major heap and growth never
   shows in a minor-words budget. *)
let next_capacity n = if n = 0 then 64 else Int.max 1024 (2 * n)

let create ~dummy () =
  { dummy; heap = [||]; len = 0; cells = [||]; cell_tags = [||];
    free = [||]; n_free = 0; next_seq = 0; floor = 0; popped_tag = 0;
    slot_prio = -1; slot_seq = 0; slot_tag = 0; slot_value = dummy }

(* --- entries ------------------------------------------------------- *)

let[@inline] set (a : int array) i p s c =
  a.(3 * i) <- p;
  a.((3 * i) + 1) <- s;
  a.((3 * i) + 2) <- c

let[@inline] move a ~src ~dst =
  set a dst a.(3 * src) a.((3 * src) + 1) a.((3 * src) + 2)

let[@inline] before (p : int) (s : int) p' s' = p < p' || (p = p' && s < s')

(* Moves parents down until (p, s) fits the hole at [i], then fills it. *)
let rec sift_up a p s c i =
  let j = (i - 1) lsr 2 in
  if i > 0 && before p s a.(3 * j) a.((3 * j) + 1) then begin
    move a ~src:j ~dst:i;
    sift_up a p s c j
  end
  else set a i p s c

(* Moves the least child up until (p, s) fits the hole at [i].  The
   least child's (prio, seq) stays in locals while the others are
   compared with it; every child read is below [len], which never
   exceeds the array's entries, so those reads skip the bounds check. *)
let rec sift_down a len p s c i =
  let first = (4 * i) + 1 in
  if first >= len then set a i p s c
  else begin
    let m = ref first in
    let mp = ref (Array.unsafe_get a (3 * first)) in
    let ms = ref (Array.unsafe_get a ((3 * first) + 1)) in
    for k = first + 1 to Int.min (first + 3) (len - 1) do
      let kp = Array.unsafe_get a (3 * k) in
      let ks = Array.unsafe_get a ((3 * k) + 1) in
      if before kp ks !mp !ms then begin
        m := k;
        mp := kp;
        ms := ks
      end
    done;
    let m = !m in
    if before !mp !ms p s then begin
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

let heap_push t prio s tag value =
  let c = store t tag value in
  if 3 * t.len = Array.length t.heap then grow_heap t;
  t.len <- t.len + 1;
  sift_up t.heap prio s c (t.len - 1)

let fill_slot t prio s tag value =
  t.slot_prio <- prio;
  t.slot_seq <- s;
  t.slot_tag <- tag;
  t.slot_value <- value

let push t ~prio ~tag value =
  let prio = Int.max prio t.floor in
  let s = t.next_seq in
  t.next_seq <- s + 1;
  if t.slot_prio < 0 then begin
    if t.len = 0 || prio < t.heap.(0) then fill_slot t prio s tag value
    else heap_push t prio s tag value
  end
  else if prio < t.slot_prio then begin
    heap_push t t.slot_prio t.slot_seq t.slot_tag t.slot_value;
    fill_slot t prio s tag value
  end
  else heap_push t prio s tag value

let size t = if t.slot_prio < 0 then t.len else t.len + 1

let min_prio t =
  if t.slot_prio >= 0 then t.slot_prio
  else if t.len = 0 then -1
  else t.heap.(0)

let pop_heap t =
  if t.len = 0 then invalid_arg "Heap.pop_value: empty";
  let a = t.heap in
  t.floor <- a.(0);
  let c = a.(2) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down a n a.(3 * n) a.((3 * n) + 1) a.((3 * n) + 2) 0;
  take t c

let[@inline] pop_value t =
  if t.slot_prio >= 0 then begin
    let v = t.slot_value in
    t.floor <- t.slot_prio;
    t.popped_tag <- t.slot_tag;
    t.slot_prio <- -1;
    t.slot_value <- t.dummy;
    v
  end
  else pop_heap t

let popped_tag t = t.popped_tag
