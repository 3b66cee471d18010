(* Conservative sharded event loops (null-message synchronization).

   Each shard is a plain {!Engine.t}; cross-shard traffic rides
   timestamped links whose [lookahead] lower-bounds every message delay.
   A shard executes work strictly earlier than

     safe = min over source shards s (publish(s) + min lookahead of
            s's links into this shard)

   where [publish(s)] is the source shard's broadcast clock floor — a
   lower bound on the date of anything it will still execute (and hence,
   + lookahead, on anything it will still send).  This is the
   Chandy–Misra–Bryant bound: it needs one term per source shard, not
   per link, so it costs O(shards) however many links a scenario
   declares.  A shard with nothing executable under [safe] publishes
   [min (next candidate, safe)] instead (the null message); with
   positive lookahead that fixpoint strictly climbs, so the system
   cannot deadlock.

   Publishing is on demand while a shard runs: a blocked shard posts,
   in each source's [want] cell, the floor that would unblock it, and
   the source publishes its clock after an event only once the clock
   has reached that floor.  The end-of-pump null message does not
   depend on [want], so liveness does not either; [want] only lets a
   waiting neighbour resume before the source's pump ends, without the
   source writing a cell its neighbour polls after every event.  On one
   domain, a sweep that executes nothing jumps every publish to the
   earliest pending work item (see [idle_jump]), so idle stretches do
   not cost one null round per lookahead.

   Determinism does not depend on scheduling: shards own disjoint state,
   a message's delivery date is fixed at send time, and the executable
   set below [safe] is stable (any concurrent send lands at or beyond
   [safe] — see the ordering argument at [send]).  Per shard, work
   executes in (date, deliveries-before-local, link key, per-link send
   order / queue seq) order no matter how many domains pump, so
   [shards=N, domains=D] is byte-identical to [shards=N, domains=1].

   Single-writer discipline: a shard is only ever pumped by one domain
   at a time (static assignment in [sweep]); its publish cell has one
   writer, so plain read-after-read on the Atomic is race-free.  Its
   [want] cell has many writers, all lowering it by CAS; only the owner
   raises it, back to [max_int], by CAS from the value it satisfied.
   Each shard's inbox — one min-heap of every message bound for it, whatever
   the link — is the only shared mutable state and sits under a mutex;
   its [ib_head] date hint is re-published atomically after every
   push/pop, so peeking the next delivery costs one atomic load, no
   lock and no allocation. *)

type link = {
  l_src : int;
  l_dst : int;
  l_key : int;                     (* creation order: delivery tie-break *)
  l_lookahead : int;
  l_label : string;
}

type msg = {
  m_at : int;                      (* delivery date *)
  m_key : int;                     (* the link's creation key *)
  m_seq : int;                     (* inbox arrival order *)
  m_label : string;
  m_fn : unit -> unit;
}

(* Messages bound for one shard, ordered by (date, link key, arrival).
   Every send on a link comes from its one source shard, pumped by one
   domain at a time, so arrival order restricted to a link is that
   link's send order: the inbox order is (date, link key, per-link send
   order). *)
type inbox = {
  ib_mu : Mutex.t;
  mutable ib_heap : msg array;     (* binary min-heap, [ib_len] live *)
  mutable ib_len : int;
  mutable ib_seq : int;
  ib_head : int Atomic.t;          (* earliest pending date; max_int = empty *)
}

(* Every lookahead into a shard from one source shard folds into one
   term of [safe]: that source's publish cell plus its smallest link
   lookahead. *)
type source = {
  so_shard : int;
  so_pub : int Atomic.t;
  so_want : int Atomic.t;          (* the source's [sh_want] *)
  mutable so_lookahead : int;
}

type shard = {
  sh_ix : int;
  sh_engine : Engine.t;
  mutable sh_sources : source list;
  sh_inbox : inbox;
  sh_publish : int Atomic.t;
  sh_want : int Atomic.t;          (* lowest floor a neighbour waits on *)
  mutable sh_done : bool;          (* reached the current run's horizon *)
  mutable sh_was_blocked : bool;   (* edge detector: count blocked episodes *)
  (* Cumulative imbalance counters (see {!stats}). *)
  mutable sh_delivered : int;
  mutable sh_blocked : int;
  mutable sh_null : int;
}

type t = { sd_shards : shard array; mutable sd_links : int }

let golden = 0x9E3779B97F4A7C15L

let create ?(seed = 0x5EEDL) ~shards () =
  if shards <= 0 then invalid_arg "Sharded.create: shards must be > 0";
  let mk i =
    (* Shard 0 keeps the root seed, so a single-node scenario placed on
       shard 0 draws exactly what it would from a plain [Engine.create
       ~seed] — the shards=1 ≡ shards=N digest checks rely on this.
       Other sub-engine seeds only have to be distinct and deterministic;
       scenario streams that must survive re-partitioning are split from
       per-node seeds, not from these. *)
    let s =
      if i = 0 then seed
      else Int64.add seed (Int64.mul golden (Int64.of_int i))
    in
    {
      sh_ix = i;
      sh_engine = Engine.create ~seed:s ();
      sh_sources = [];
      sh_inbox =
        {
          ib_mu = Mutex.create ();
          ib_heap = [||];
          ib_len = 0;
          ib_seq = 0;
          ib_head = Atomic.make max_int;
        };
      sh_publish = Atomic.make 0;
      sh_want = Atomic.make max_int;
      sh_done = false;
      sh_was_blocked = false;
      sh_delivered = 0;
      sh_blocked = 0;
      sh_null = 0;
    }
  in
  { sd_shards = Array.init shards mk; sd_links = 0 }

let shards t = Array.length t.sd_shards

let engine t i =
  if i < 0 || i >= Array.length t.sd_shards then
    invalid_arg "Sharded.engine: shard index out of range";
  t.sd_shards.(i).sh_engine

let link t ~src ~dst ~lookahead ?(label = "") () =
  let n = Array.length t.sd_shards in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Sharded.link: shard index out of range";
  if lookahead <= 0 then
    invalid_arg
      "Sharded.link: lookahead must be > 0 (a zero-lookahead link cannot \
       be synchronized conservatively and would deadlock)";
  let l =
    { l_src = src; l_dst = dst; l_key = t.sd_links; l_lookahead = lookahead;
      l_label = label }
  in
  t.sd_links <- t.sd_links + 1;
  let d = t.sd_shards.(dst) in
  (match List.find_opt (fun so -> so.so_shard = src) d.sh_sources with
  | Some so -> so.so_lookahead <- min so.so_lookahead lookahead
  | None ->
    d.sh_sources <-
      { so_shard = src; so_pub = t.sd_shards.(src).sh_publish;
        so_want = t.sd_shards.(src).sh_want; so_lookahead = lookahead }
      :: d.sh_sources);
  l

(* The inbox heap.  Callers hold [ib_mu].  {!Heap} orders by
   (prio, insertion) only; the inbox needs the link key in between. *)

let before a b =
  a.m_at < b.m_at
  || a.m_at = b.m_at
     && (a.m_key < b.m_key || (a.m_key = b.m_key && a.m_seq < b.m_seq))

(* Fills vacated slots so a delivered closure becomes unreachable at
   once instead of pinning its captures until the slot is reused. *)
let vacant = { m_at = max_int; m_key = 0; m_seq = 0; m_label = ""; m_fn = ignore }

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before h.(i) h.(parent) then begin
      let tmp = h.(i) in
      h.(i) <- h.(parent);
      h.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < len && before h.(l) h.(i) then l else i in
  let m = if r < len && before h.(r) h.(m) then r else m in
  if m <> i then begin
    let tmp = h.(i) in
    h.(i) <- h.(m);
    h.(m) <- tmp;
    sift_down h len m
  end

let inbox_push ib m =
  if ib.ib_len = Array.length ib.ib_heap then begin
    let nh = Array.make (max 16 (2 * ib.ib_len)) vacant in
    Array.blit ib.ib_heap 0 nh 0 ib.ib_len;
    ib.ib_heap <- nh
  end;
  ib.ib_heap.(ib.ib_len) <- m;
  ib.ib_len <- ib.ib_len + 1;
  sift_up ib.ib_heap (ib.ib_len - 1);
  Atomic.set ib.ib_head ib.ib_heap.(0).m_at

let inbox_pop ib =
  let h = ib.ib_heap in
  let top = h.(0) in
  ib.ib_len <- ib.ib_len - 1;
  h.(0) <- h.(ib.ib_len);
  h.(ib.ib_len) <- vacant;
  sift_down h ib.ib_len 0;
  Atomic.set ib.ib_head (if ib.ib_len = 0 then max_int else h.(0).m_at);
  top

(* Why a concurrent send can never undercut a receiver's [safe]: the
   receiver read [publish(src) = P] and uses [safe <= P + lookahead].
   Any push it can subsequently observe was made while the source's
   clock was >= P (publish trails the clock from below), so its delivery
   date is >= P + delay >= P + lookahead >= safe — and the receiver only
   executes strictly below [safe].  Pushes made before publish reached P
   are made visible by the SC atomics + inbox mutex: the receiver reads
   publishes first, the head hint second.  The same argument lets the
   receiver pop after an unlocked head peek: nothing dated below [safe]
   can slip in ahead of the head it saw. *)
let send t l ~delay fn =
  if delay < l.l_lookahead then
    invalid_arg "Sharded.send: delay below the link's declared lookahead";
  let at = Engine.now t.sd_shards.(l.l_src).sh_engine + delay in
  let ib = t.sd_shards.(l.l_dst).sh_inbox in
  Mutex.lock ib.ib_mu;
  inbox_push ib
    { m_at = at; m_key = l.l_key; m_seq = ib.ib_seq; m_label = l.l_label;
      m_fn = fn };
  ib.ib_seq <- ib.ib_seq + 1;
  Mutex.unlock ib.ib_mu

(* Executes the earliest delivery on [s]'s own engine. *)
let deliver s =
  let ib = s.sh_inbox in
  Mutex.lock ib.ib_mu;
  let m = inbox_pop ib in
  Mutex.unlock ib.ib_mu;
  Engine.run_external s.sh_engine ~at:m.m_at ~label:m.m_label m.m_fn;
  s.sh_delivered <- s.sh_delivered + 1

let inbound_safe s =
  List.fold_left
    (fun acc so ->
      let v = Atomic.get so.so_pub + so.so_lookahead in
      if v < acc then v else acc)
    max_int s.sh_sources

(* Date of the earliest pending delivery; max_int when the inbox is
   empty. *)
let delivery_head s = Atomic.get s.sh_inbox.ib_head

(* Date of [s]'s earliest pending work item, delivery or local event;
   max_int when there is none. *)
let candidate s = Int.min (delivery_head s) (Engine.next_at s.sh_engine)

(* Only the owning domain writes a shard's publish cell, so the
   read-then-set below is single-writer and needs no CAS. *)
let publish_floor s v =
  if v > Atomic.get s.sh_publish then Atomic.set s.sh_publish v

(* After an event: publish the clock only once it has reached the floor
   a blocked neighbour asked for, then withdraw that request.  The CAS
   keeps a lower request posted meanwhile; this publish already meets
   it, and the next event withdraws it. *)
let publish_on_demand s =
  let w = Atomic.get s.sh_want in
  let now = Engine.now s.sh_engine in
  if now >= w then begin
    publish_floor s now;
    ignore (Atomic.compare_and_set s.sh_want w max_int)
  end

(* CAS-min: lowers [cell] to [v] unless it already holds less. *)
let rec lower cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then lower cell v

(* A shard runs [need] once every source publishes at least
   [need - lookahead + 1]; ask the sources still short of it. *)
let rec post_wants need = function
  | [] -> ()
  | so :: rest ->
    let floor = need - so.so_lookahead + 1 in
    if Atomic.get so.so_pub < floor then lower so.so_want floor;
    post_wants need rest

(* What a pump or a sweep reports, as bits of an int so that the
   polling loops allocate nothing. *)
let ran = 1                        (* an event executed *)
let advanced = 2                   (* a publish cell rose or a shard finished *)
let pending = 4                    (* a shard has not reached the horizon *)

(* Both [s]'s next candidate and every possible future inbound delivery
   lie beyond the horizon: the shard is finished, and (because future
   sends to it arrive at >= safe > horizon) its inbox can no longer grow
   below the horizon either. *)
let finish s ~horizon =
  Engine.advance_to s.sh_engine horizon;
  publish_floor s (horizon + 1);
  s.sh_done <- true

(* Executes everything currently provable-safe on [s], then either
   finishes the shard for this horizon or broadcasts its clock floor. *)
let pump s ~horizon =
  let r = ref 0 in
  let safe = inbound_safe s in
  let running = ref true in
  while !running do
    running := false;
    let da = delivery_head s in
    let wa = Engine.next_at s.sh_engine in
    (* Deliveries beat local events on equal dates. *)
    if da <= wa then begin
      if da < safe && da <= horizon then begin
        deliver s;
        running := true
      end
    end
    else if wa < safe && wa <= horizon then begin
      ignore (Engine.step s.sh_engine);
      running := true
    end;
    if !running then begin
      publish_on_demand s;
      r := ran
    end
  done;
  (* Nothing executable under [safe]. *)
  let cand = candidate s in
  let bound = Int.min cand safe in
  if bound > horizon then begin
    finish s ~horizon;
    !r lor advanced
  end
  else begin
    post_wants (Int.min cand horizon) s.sh_sources;
    (* Blocked on lookahead: broadcast the clock floor (null message) so
       neighbours waiting on us can advance past our idle links. *)
    if bound > Atomic.get s.sh_publish then begin
      Atomic.set s.sh_publish bound;
      s.sh_null <- s.sh_null + 1;
      s.sh_was_blocked <- false;
      r := !r lor advanced
    end
    else begin
      (* Counted per episode, not per poll: a parallel pump spins here
         via [cpu_relax] until a neighbour publishes. *)
      if not s.sh_was_blocked then s.sh_blocked <- s.sh_blocked + 1;
      s.sh_was_blocked <- true
    end;
    !r lor pending
  end

let reset_run t =
  Array.iter
    (fun s ->
      s.sh_done <- false;
      Atomic.set s.sh_want max_int;
      Atomic.set s.sh_publish (Engine.now s.sh_engine))
    t.sd_shards

(* Pumps shards [first], [first + stride], ... once each and ORs their
   bits.  One domain sweeps them all; domain [d] of [n] sweeps the
   shards [i] with [i mod n = d], so each shard keeps one writer. *)
let sweep t ~horizon ~first ~stride =
  let sh = t.sd_shards in
  let r = ref 0 and i = ref first in
  while !i < Array.length sh do
    let s = sh.(!i) in
    if not s.sh_done then r := !r lor pump s ~horizon;
    i := !i + stride
  done;
  !r

(* One domain, and a whole sweep ran no event: every shard waits on
   lookahead alone, and another null round would lift each bound by one
   lookahead however far off the next work item is.  Nothing runs
   concurrently, so nothing anywhere executes before [g], the earliest
   pending work item, and nothing sent from then on lands before [g]
   plus a lookahead: [g] is a valid clock floor for every shard at once.
   Returns whether any shard moved. *)
let idle_jump t ~horizon =
  let sh = t.sd_shards in
  let g = ref max_int in
  for i = 0 to Array.length sh - 1 do
    g := Int.min !g (candidate sh.(i))
  done;
  let g = !g and moved = ref false in
  for i = 0 to Array.length sh - 1 do
    let s = sh.(i) in
    if s.sh_done then ()
    else if g > horizon then begin
      finish s ~horizon;
      moved := true
    end
    else if g > Atomic.get s.sh_publish then begin
      Atomic.set s.sh_publish g;
      moved := true
    end
  done;
  !moved

let run_horizon_single t ~horizon =
  let fin = ref false in
  while not !fin do
    let r = sweep t ~horizon ~first:0 ~stride:1 in
    if r land pending = 0 then fin := true
    else if r land ran = 0 then begin
      let moved = idle_jump t ~horizon in
      if (not moved) && r land advanced = 0 then
        (* Unreachable with positive lookahead: the earliest pending work
           item always lifts some publish.  Fail loudly rather than spin. *)
        failwith "Sharded.run: no shard can make progress (deadlock)"
    end
  done

let run_horizon_parallel t ~horizon ~domains =
  let domains = min domains (Array.length t.sd_shards) in
  (* Sleep lengths for a waiting domain, boxed up front so that napping
     allocates nothing.  Built per run, not at module initialisation,
     which would shift the GC timing of every program linking this. *)
  let naps = Array.init 100 (fun k -> ref (float_of_int (k + 1) *. 1e-6)) in
  let worker d () =
    let fin = ref false and idle = ref 0 in
    while not !fin do
      let r = sweep t ~horizon ~first:d ~stride:domains in
      if r land pending = 0 then fin := true
      else if r land (ran lor advanced) <> 0 then idle := 0
      else begin
        (* Our shards are waiting on another domain's publishes.  Spin
           briefly — a working neighbour usually publishes within a few
           polls — then back off to real sleeps so oversubscribed hosts
           (domains > cores) yield the core to the domain being waited
           on instead of burning its timeslice busy-polling. *)
        incr idle;
        if !idle <= 200 then Domain.cpu_relax ()
        else Unix.sleepf !(naps.(Int.min 100 (!idle - 200) - 1))
      end
    done
  in
  let others = List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join others

(* Drain mode: execute the globally earliest work item until every
   event queue and inbox is empty.  The global merge executes each
   shard's events in exactly the order the conservative loop would (the
   per-shard comparator is identical); it exists because "run until
   empty" has no horizon for the publish fixpoint to converge to. *)
let drain t =
  let continue_ = ref true in
  while !continue_ do
    let best = ref max_int and best_s = ref None in
    Array.iter
      (fun s ->
        let c = candidate s in
        if c < !best then begin
          best := c;
          best_s := Some s
        end)
      t.sd_shards;
    match !best_s with
    | None -> continue_ := false
    | Some s ->
      if delivery_head s <= Engine.next_at s.sh_engine then deliver s
      else ignore (Engine.step s.sh_engine)
  done

let run ?until ?(domains = 1) t =
  match until with
  | None ->
    if domains > 1 then
      invalid_arg "Sharded.run: draining (no ~until) is single-domain only";
    drain t
  | Some horizon ->
    reset_run t;
    if domains <= 1 || Array.length t.sd_shards = 1 then
      run_horizon_single t ~horizon
    else run_horizon_parallel t ~horizon ~domains

type shard_stats = {
  ss_shard : int;
  ss_clock : Time.ns;
  ss_events : int;
  ss_delivered : int;
  ss_blocked : int;
  ss_null : int;
  ss_pending : int;
}

let stats t =
  Array.map
    (fun s ->
      let ib = s.sh_inbox in
      Mutex.lock ib.ib_mu;
      let boxed = ib.ib_len in
      Mutex.unlock ib.ib_mu;
      {
        ss_shard = s.sh_ix;
        ss_clock = Engine.now s.sh_engine;
        ss_events = Engine.events_processed s.sh_engine;
        ss_delivered = s.sh_delivered;
        ss_blocked = s.sh_blocked;
        ss_null = s.sh_null;
        ss_pending = Engine.pending s.sh_engine + boxed;
      })
    t.sd_shards
