(* The engine's event queue: an implicit 4-ary min-heap on one packed
   int key per entry, plus one front slot outside it.

   Every entry carries an int tag beside its value (the engine's label
   id), so a caller that needs a small integer per entry pays no boxing
   for it.

   The front slot holds at most one entry, and that entry comes before
   every heap entry in key order.  A push earlier than everything
   queued takes the slot: with the slot empty, that is a key below the
   heap's least; with it full, a key below the slot's, and the slot's
   entry then moves into the heap with its key kept.  Any other push
   goes to the heap.  A pop takes the slot first.  The simulator's
   datapath is a chain of events, each scheduling the next hop earlier
   than anything already queued, so in a closed loop most entries pass
   through the slot and never touch the heap's arrays.

   An entry's key packs its date and its sequence number into one int:
   [((date - base) lsl seq_bits) lor seq], so one integer compare orders
   entries by (date, seq).  Keys are below 2^62, so the difference of
   two keys never overflows and its sign bit is [d asr 62]: sifting down
   picks the least of a node's four children with no branch (the four
   keys sit side by side in one array) and then compares it with the
   hole once.  The heap is two parallel int arrays, the keys and the
   index of the cell that holds each entry's value, so sifting moves
   ints only (no write barrier).  Past the last entry the key array
   holds [empty_key] for at least three slots, so a node's four children
   are always readable.  Values and their tags stay in one pool of cells
   (two parallel arrays) while queued, and a free stack recycles the
   cells.

   A key stays exact while its date lies in [base, base + span) and its
   seq below 2^seq_bits.  A push that breaks either rebases: the queue
   picks a new base that every queued date and the new one fit above,
   and renumbers every queued entry, the slot's included, by its rank
   among the queued entries of its date.  The entries are sorted by key
   in place first, and a sorted array is a valid heap, so that array
   becomes the heap.  Order is kept: ranks follow the old seqs within a
   date, and the next push's seq exceeds every rank.  All queued dates
   must therefore lie within [span] of each other; a push that would
   break that raises.

   A vacated value cell or slot is overwritten with the caller's [dummy]
   at once: a popped value must become unreachable from the queue
   immediately, or the queue pins arbitrarily large closures (the engine
   stores event thunks here) until the cell happens to be reused.  Once
   the arrays are sized, neither push nor pop allocates, tag included:
   tags are immediate ints, stored without a write barrier, and a
   rebase works in the arrays it has.

   Ordering contract: extraction is by (prio, seq), FIFO among equal
   priorities.  A push below the last popped priority (or below 0) is
   clamped up to it, so nothing is ever filed into the delivered past. *)

let seq_bits = 20
let date_bits = 62 - seq_bits
let span = 1 lsl date_bits
let empty_key = max_int

(* Eight unused words at each end, as in {!Engine.t}: each shard's
   queue is written on every event by its own domain, and the padding
   keeps those writes off other shards' cache lines. *)
type 'a t = {
  pad0 : int; pad1 : int; pad2 : int; pad3 : int;
  pad4 : int; pad5 : int; pad6 : int; pad7 : int;
  dummy : 'a;
  mutable keys : int array;  (* children of entry i: 4i+1 .. 4i+4 *)
  mutable cell_of : int array;  (* cell index of each heap entry *)
  mutable len : int;
  mutable cells : 'a array;  (* values of heap entries *)
  mutable cell_tags : int array;  (* their tags *)
  mutable free : int array;  (* free cell indices, [n_free] live *)
  mutable n_free : int;
  mutable base : int;        (* the date of key 0 *)
  mutable next_seq : int;
  mutable floor : int;       (* last popped priority *)
  mutable popped_tag : int;  (* tag of the last popped entry *)
  (* The front slot; [slot_key = -1] when it is empty. *)
  mutable slot_key : int;
  mutable slot_tag : int;
  mutable slot_value : 'a;
  pad8 : int; pad9 : int; pad10 : int; pad11 : int;
  pad12 : int; pad13 : int; pad14 : int; pad15 : int;
}

(* Capacities in entries (or cells).  The first arrays are small: most
   queues stay short, and a short queue dies young with its engine.
   Once outgrown, they jump past [Max_young_wosize] (256 words), so
   every later array goes straight to the major heap and growth never
   shows in a minor-words budget. *)
let next_capacity n = if n = 0 then 64 else Int.max 1024 (2 * n)

let create ~dummy () =
  { pad0 = 0; pad1 = 0; pad2 = 0; pad3 = 0;
    pad4 = 0; pad5 = 0; pad6 = 0; pad7 = 0;
    dummy; keys = [| empty_key |]; cell_of = [||]; len = 0; cells = [||];
    cell_tags = [||]; free = [||]; n_free = 0; base = 0; next_seq = 0;
    floor = 0; popped_tag = 0; slot_key = -1; slot_tag = 0;
    slot_value = dummy;
    pad8 = 0; pad9 = 0; pad10 = 0; pad11 = 0;
    pad12 = 0; pad13 = 0; pad14 = 0; pad15 = 0 }

let[@inline] date t k = t.base + (k lsr seq_bits)

(* --- entries ------------------------------------------------------- *)

(* Moves parents down until [k] fits the hole at [i], then fills it.
   Every index is below [len], so the accesses skip the bounds check. *)
let rec sift_up (keys : int array) (cell_of : int array) (k : int) c i =
  let j = (i - 1) lsr 2 in
  if i > 0 && k < Array.unsafe_get keys j then begin
    Array.unsafe_set keys i (Array.unsafe_get keys j);
    Array.unsafe_set cell_of i (Array.unsafe_get cell_of j);
    sift_up keys cell_of k c j
  end
  else begin
    Array.unsafe_set keys i k;
    Array.unsafe_set cell_of i c
  end

(* Moves the least child up until [k] fits the hole at [i].  The least
   of the four children is picked by sign masks: [s = (b - a) asr 62]
   is -1 when [b < a] and 0 otherwise, so [a + ((b - a) land s)] is the
   lesser key and [ja - s] its index when [jb = ja + 1].  Children past
   [len] read [empty_key] and never win against the hole.  Every child
   index is below [len + 3], within the arrays, so the reads skip the
   bounds check. *)
let rec sift_down (keys : int array) (cell_of : int array) len (k : int) c i =
  let f = (4 * i) + 1 in
  if f >= len then begin
    Array.unsafe_set keys i k;
    Array.unsafe_set cell_of i c
  end
  else begin
    let k0 = Array.unsafe_get keys f in
    let k1 = Array.unsafe_get keys (f + 1) in
    let k2 = Array.unsafe_get keys (f + 2) in
    let k3 = Array.unsafe_get keys (f + 3) in
    let d01 = k1 - k0 and d23 = k3 - k2 in
    let s01 = d01 asr 62 and s23 = d23 asr 62 in
    let m01 = k0 + (d01 land s01) and m23 = k2 + (d23 land s23) in
    let j01 = f - s01 and j23 = f + 2 - s23 in
    let d = m23 - m01 in
    let s = d asr 62 in
    let m = m01 + (d land s) and j = j01 + ((j23 - j01) land s) in
    if m < k then begin
      Array.unsafe_set keys i m;
      Array.unsafe_set cell_of i (Array.unsafe_get cell_of j);
      sift_down keys cell_of len k c j
    end
    else begin
      Array.unsafe_set keys i k;
      Array.unsafe_set cell_of i c
    end
  end

(* The heap is out of padded room: a larger copy. *)
let grow_heap t =
  let n = next_capacity t.len in
  let keys = Array.make n empty_key and cell_of = Array.make n 0 in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.cell_of 0 cell_of 0 t.len;
  t.keys <- keys;
  t.cell_of <- cell_of

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

(* --- rebase -------------------------------------------------------- *)

(* Heapsort of the heap's entries by key, in place: a binary max-heap
   over [0, n), its maximum moved to the end each round.  The entries
   move as (key, cell) pairs, and a sorted array is a valid 4-ary
   heap again. *)
let swap (keys : int array) (cell_of : int array) i j =
  let k = keys.(i) and c = cell_of.(i) in
  keys.(i) <- keys.(j);
  cell_of.(i) <- cell_of.(j);
  keys.(j) <- k;
  cell_of.(j) <- c

let rec sift_max (keys : int array) cell_of n i =
  let l = (2 * i) + 1 in
  if l < n then begin
    let j = if l + 1 < n && keys.(l + 1) > keys.(l) then l + 1 else l in
    if keys.(j) > keys.(i) then begin
      swap keys cell_of i j;
      sift_max keys cell_of n j
    end
  end

let sort_entries keys cell_of n =
  for i = (n / 2) - 1 downto 0 do
    sift_max keys cell_of n i
  done;
  for last = n - 1 downto 1 do
    swap keys cell_of 0 last;
    sift_max keys cell_of last 0
  done

(* Re-keys every queued entry so that a push at [prio] fits: the new
   base is the last popped date, or higher when the latest date needs
   it, and each entry's seq becomes its rank among the entries of its
   date.  Ranks run over the slot's entry, then the heap's in key
   order.  The entries are sorted in place first; then one read-only
   pass checks the span and the ranks and a second rewrites the keys,
   so a push it refuses leaves every queued key as it was.  Nothing is
   allocated. *)
let rebase t prio =
  let n = t.len and keys = t.keys in
  sort_entries keys t.cell_of n;
  let lo = ref prio and hi = ref prio in
  if t.slot_key >= 0 then begin
    lo := Int.min !lo (date t t.slot_key);
    hi := Int.max !hi (date t t.slot_key)
  end;
  if n > 0 then begin
    lo := Int.min !lo (date t keys.(0));
    hi := Int.max !hi (date t keys.(n - 1))
  end;
  if !hi - !lo >= span then
    invalid_arg
      (Printf.sprintf "Heap.push: date %d lies %d ns or more from a queued one"
         prio span);
  (* The largest group of queued entries sharing a date. *)
  let top = ref 0 and run = ref 0 and prev = ref (-1) in
  if t.slot_key >= 0 then begin
    prev := date t t.slot_key;
    run := 1;
    top := 1
  end;
  for i = 0 to n - 1 do
    let d = date t keys.(i) in
    if d = !prev then incr run
    else begin
      prev := d;
      run := 1
    end;
    top := Int.max !top !run
  done;
  if !top >= 1 lsl seq_bits then
    invalid_arg "Heap.push: too many entries share one date";
  let base = Int.max t.floor (!hi - span + 1) in
  let rank = ref 0 and prev = ref (-1) in
  if t.slot_key >= 0 then begin
    prev := date t t.slot_key;
    t.slot_key <- (!prev - base) lsl seq_bits
  end;
  for i = 0 to n - 1 do
    let d = date t keys.(i) in
    if d = !prev then incr rank
    else begin
      prev := d;
      rank := 0
    end;
    keys.(i) <- ((d - base) lsl seq_bits) lor !rank
  done;
  t.base <- base;
  t.next_seq <- !top

(* --- the queue ----------------------------------------------------- *)

let heap_push t k tag value =
  let c = store t tag value in
  if t.len + 4 > Array.length t.keys then grow_heap t;
  t.len <- t.len + 1;
  sift_up t.keys t.cell_of k c (t.len - 1)

let fill_slot t k tag value =
  t.slot_key <- k;
  t.slot_tag <- tag;
  t.slot_value <- value

(* Files [value] at [prio], whose key fits. *)
let[@inline] insert t prio tag value =
  let k = ((prio - t.base) lsl seq_bits) lor t.next_seq in
  t.next_seq <- t.next_seq + 1;
  if t.slot_key < 0 then begin
    (* An empty heap's first key is [empty_key]; [keys] is never empty. *)
    if k < Array.unsafe_get t.keys 0 then fill_slot t k tag value
    else heap_push t k tag value
  end
  else if k < t.slot_key then begin
    heap_push t t.slot_key t.slot_tag t.slot_value;
    fill_slot t k tag value
  end
  else heap_push t k tag value

(* One test for a date outside [base, base + span) and a spent seq.  The
   rebase call sits on its own branch, so the common path keeps its
   values in registers. *)
let push t ~prio ~tag value =
  let prio = Int.max prio t.floor in
  if ((prio - t.base) lsr date_bits) lor (t.next_seq lsr seq_bits) = 0 then
    insert t prio tag value
  else begin
    rebase t prio;
    insert t prio tag value
  end

let size t = if t.slot_key < 0 then t.len else t.len + 1

let min_prio t =
  if t.slot_key >= 0 then date t t.slot_key
  else if t.len = 0 then -1
  else date t t.keys.(0)

let pop_heap t =
  if t.len = 0 then invalid_arg "Heap.pop_value: empty";
  let keys = t.keys and cell_of = t.cell_of in
  t.floor <- date t keys.(0);
  let c = cell_of.(0) in
  let n = t.len - 1 in
  t.len <- n;
  let k = keys.(n) in
  keys.(n) <- empty_key;
  if n > 0 then sift_down keys cell_of n k cell_of.(n) 0;
  take t c

let[@inline] pop_value t =
  if t.slot_key >= 0 then begin
    let v = t.slot_value in
    t.floor <- date t t.slot_key;
    t.popped_tag <- t.slot_tag;
    t.slot_key <- -1;
    t.slot_value <- t.dummy;
    v
  end
  else pop_heap t

let popped_tag t = t.popped_tag
