(* Hierarchical timing wheel (Varghese & Lauck) fronting a binary heap.

   Six levels of 32 slots each; priorities are read as six base-32
   digits.  An entry is filed at the highest level where its digit
   differs from [base] (the lowest undelivered tick), in the slot named
   by its own digit at that level.  Level-k slots therefore partition
   base's aligned level-(k+1) frame, which gives the key invariant: an
   entry at level k is strictly smaller than every entry at any level
   above k, so the lowest non-empty level always holds the global
   minimum and pop never scans the levels above it.

   Events whose priority differs from [base] beyond the top digit
   (i.e. outside base's aligned 32^6 = 2^30-tick frame, ~1.07 s of
   simulated nanoseconds) spill into an overflow min-heap and drain
   back as [base] crosses frame boundaries.

   Near-future scheduling — the common case in the event loop, where
   most delays are nanoseconds to microseconds — is O(1) per push; pop
   finds the next occupied slot with a per-level occupancy bitmask
   instead of an O(log n) sift, cascading one higher-level slot down
   when the levels below it are exhausted (each entry cascades at most
   once per level, so the amortized cost per event is O(levels)).

   Ordering contract (same as {!Heap}): extraction is by (priority,
   sequence), FIFO among equal priorities.  Sequence numbers are
   assigned at push.  A level-0 slot holds exactly one tick, as two
   lists: the push list, where entries are filed, and a front sorted by
   sequence, which pop consumes head first.  When the front is empty, a
   one-entry push list pops directly; a longer one is sorted by
   sequence once and becomes the front.  Every entry in a slot's push
   list has a larger sequence than every entry in its front: cascades
   and overflow drains only fill level 0 while level 0 is empty (no
   front exists; the drain after a pop moves [base] within one level-0
   frame, which no overflow entry shares), and a direct push takes the
   newest sequence.  So a
   tick holding k entries drains in O(k log k) in total, not O(k^2),
   and the order is the heap's exactly — including for entries that
   migrated through cascades or the overflow heap. *)

type 'a entry = { e_prio : int; e_seq : int; e_value : 'a }

let slot_bits = 5
let slots_per_level = 1 lsl slot_bits (* 32 *)
let slot_mask = slots_per_level - 1
let levels = 6
let span = 1 lsl (slot_bits * levels) (* 2^30 ticks *)

type 'a t = {
  slots : 'a entry list array array; (* [levels][slots_per_level] *)
  front : 'a entry list array;       (* level 0 only, ascending seq *)
  masks : int array;                 (* occupancy bitmask per level *)
  overflow : 'a entry Heap.t;        (* beyond base's top-level frame *)
  mutable base : int;                (* lowest undelivered tick *)
  mutable count : int;
  mutable next_seq : int;
  mutable cached_min : int;          (* memoized peek; -1 = unknown *)
}

let create () =
  { slots = Array.init levels (fun _ -> Array.make slots_per_level []);
    front = Array.make slots_per_level [];
    masks = Array.make levels 0;
    overflow = Heap.create ();
    base = 0;
    count = 0;
    next_seq = 0;
    cached_min = -1 }

(* Smallest set bit of [m] (which must be non-zero). *)
let ctz m =
  let r = ref 0 and m = ref m in
  while !m land 1 = 0 do
    incr r;
    m := !m lsr 1
  done;
  !r

(* Highest level at which [x = prio lxor base] has a non-zero digit;
   [levels] means the entry falls outside base's top-level frame. *)
let level_of_diff x =
  if x < 32 then 0
  else if x < 1024 then 1
  else if x < 32768 then 2
  else if x < 1048576 then 3
  else if x < 33554432 then 4
  else if x < span then 5
  else levels

(* Files [e] relative to the current [base].  All wheel-resident
   entries satisfy [e.e_prio >= t.base]. *)
let place t e =
  let k = level_of_diff (e.e_prio lxor t.base) in
  if k = levels then Heap.push t.overflow ~prio:e.e_prio e
  else begin
    let slot = (e.e_prio lsr (slot_bits * k)) land slot_mask in
    let lv = t.slots.(k) in
    lv.(slot) <- e :: lv.(slot);
    t.masks.(k) <- t.masks.(k) lor (1 lsl slot)
  end

(* Pulls overflow events that share base's top-level frame. *)
let drain_overflow t =
  let rec go () =
    match Heap.peek_prio t.overflow with
    | Some p when p lxor t.base < span -> (
      match Heap.pop t.overflow with
      | Some (_, e) ->
        place t e;
        go ()
      | None -> ())
    | Some _ | None -> ()
  in
  go ()

(* Empties level-[k] slot [slot] and re-files its entries.  The caller
   guarantees every level below [k] is empty and the slot is the first
   occupied one at level k, so its aligned start is the new base; the
   entries then differ from it only below digit k and descend. *)
let cascade t k slot =
  let lv = t.slots.(k) in
  let entries = lv.(slot) in
  lv.(slot) <- [];
  t.masks.(k) <- t.masks.(k) land lnot (1 lsl slot);
  let g = slot_bits * k in
  (* [lsl]/[lsr] are right-associative in OCaml: parenthesize the
     round-down explicitly. *)
  let frame = (t.base lsr (g + slot_bits)) lsl (g + slot_bits) in
  let start = frame lor (slot lsl g) in
  if start > t.base then begin
    t.base <- start;
    drain_overflow t
  end;
  List.iter (fun e -> place t e) entries

(* Lowest pending tick without disturbing [base]: peeking must not
   commit the wheel to "nothing will ever be filed before the next
   event".  An external driver (a cross-shard mailbox delivery, see
   {!Sharded}) can still execute work dated between the clock and that
   event, and its follow-up pushes would then be clamped forward by a
   prematurely advanced [base] — a whole-rotation misdelivery.  So the
   read path scans the first occupied slot (its list is the global
   minimum's home, see the level invariant above) and leaves cascading
   to [pop], where [base] only ever advances to a tick being delivered.
   The result is memoized wherever the minimum lives; [pop] recomputes
   its slot from the level-0 mask after settling, so the memo never
   implies level-0 residence.  -1 when empty. *)
let min_prio t =
  if t.count = 0 then -1
  else if t.cached_min >= 0 then t.cached_min
  else begin
    let m =
      if t.masks.(0) <> 0 then
        ((t.base lsr slot_bits) lsl slot_bits) lor ctz t.masks.(0)
      else begin
        let k = ref 1 in
        while !k < levels && t.masks.(!k) = 0 do
          incr k
        done;
        if !k < levels then
          List.fold_left
            (fun acc e -> if e.e_prio < acc then e.e_prio else acc)
            max_int
            t.slots.(!k).(ctz t.masks.(!k))
        else begin
          match Heap.peek_prio t.overflow with
          | Some p -> p
          | None -> assert false (* count > 0 *)
        end
      end
    in
    t.cached_min <- m;
    m
  end

(* Pop-time companion of [min_prio]: cascades until the minimum lives in
   a level-0 slot (advancing [base] as frames resolve — safe here, the
   caller is about to deliver that tick). *)
let rec settle t =
  if t.masks.(0) = 0 then begin
    let k = ref 1 in
    while !k < levels && t.masks.(!k) = 0 do
      incr k
    done;
    if !k < levels then cascade t !k (ctz t.masks.(!k))
    else begin
      (* Only the overflow heap holds events: jump to its frame. *)
      match Heap.peek_prio t.overflow with
      | Some p ->
        t.base <- p;
        drain_overflow t
      | None -> assert false (* count > 0 *)
    end;
    settle t
  end

let by_seq a b = compare (a.e_seq : int) b.e_seq

let entry_prio e = e.e_prio
let entry_value e = e.e_value

let pop_entry t =
  if t.count = 0 then invalid_arg "Wheel.pop_entry: empty"
  else begin
    settle t;
    let m = ((t.base lsr slot_bits) lsl slot_bits) lor ctz t.masks.(0) in
    let slot = m land slot_mask in
    let lv = t.slots.(0) in
    let e =
      match t.front.(slot) with
      | e :: rest ->
        t.front.(slot) <- rest;
        e
      | [] -> (
        let l = lv.(slot) in
        lv.(slot) <- [];
        match l with
        | [ e ] -> e
        | l -> (
          match List.sort by_seq l with
          | e :: rest ->
            t.front.(slot) <- rest;
            e
          | [] -> assert false (* the mask bit was set *)))
    in
    if t.front.(slot) == [] && lv.(slot) == [] then begin
      t.masks.(0) <- t.masks.(0) land lnot (1 lsl slot);
      t.cached_min <- -1
    end;
    t.count <- t.count - 1;
    if m > t.base then begin
      t.base <- m;
      drain_overflow t
    end;
    e
  end

let pop t =
  if t.count = 0 then None
  else
    let e = pop_entry t in
    Some (e.e_prio, e.e_value)

let push t ~prio value =
  (* Dates before the current base would already have been delivered;
     clamp them to fire immediately (the engine clamps to its clock
     before calling, so this only matters for standalone use). *)
  let prio = if prio < t.base then t.base else prio in
  let e = { e_prio = prio; e_seq = t.next_seq; e_value = value } in
  t.next_seq <- t.next_seq + 1;
  t.count <- t.count + 1;
  place t e;
  if prio < t.cached_min then t.cached_min <- prio

let size t = t.count
let is_empty t = t.count = 0

let clear t =
  Array.iter (fun lv -> Array.fill lv 0 slots_per_level []) t.slots;
  Array.fill t.front 0 slots_per_level [];
  Array.fill t.masks 0 levels 0;
  Heap.clear t.overflow;
  t.base <- 0;
  t.count <- 0;
  t.cached_min <- -1
