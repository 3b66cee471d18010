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

   Determinism does not depend on scheduling: shards own disjoint state,
   a message's delivery date is fixed at send time, and the executable
   set below [safe] is stable (any concurrent send lands at or beyond
   [safe] — see the ordering argument at [send]).  Per shard, work
   executes in (date, deliveries-before-local, link key, per-link send
   order / queue seq) order no matter how many domains pump, so
   [shards=N, domains=D] is byte-identical to [shards=N, domains=1].

   Single-writer discipline: a shard is only ever pumped by one domain
   at a time (static assignment in [run]); its publish cell has one
   writer, so plain read-after-read on the Atomic is race-free.  Each
   shard's inbox — one min-heap of every message bound for it, whatever
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
  mutable so_lookahead : int;
}

type shard = {
  sh_ix : int;
  sh_engine : Engine.t;
  mutable sh_sources : source list;
  sh_inbox : inbox;
  sh_publish : int Atomic.t;
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
        so_lookahead = lookahead }
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

(* Only the owning domain writes a shard's publish cell, so the
   read-then-set below is single-writer and needs no CAS. *)
let publish_floor s v =
  if v > Atomic.get s.sh_publish then Atomic.set s.sh_publish v

(* Executes everything currently provable-safe on [s], then either
   declares the shard done for this horizon or broadcasts its clock
   floor.  Returns true when an event ran or the published floor
   advanced (progress another shard can observe). *)
let pump s ~horizon =
  let progress = ref false in
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
        publish_floor s (Engine.now s.sh_engine);
        progress := true;
        running := true
      end
    end
    else if wa < safe && wa <= horizon then begin
      ignore (Engine.step s.sh_engine);
      publish_floor s (Engine.now s.sh_engine);
      progress := true;
      running := true
    end
  done;
  (* Nothing executable under [safe]. *)
  let cand = Int.min (delivery_head s) (Engine.next_at s.sh_engine) in
  let bound = Int.min cand safe in
  if bound > horizon then begin
    (* Both the local candidate and every possible future inbound
       delivery lie beyond the horizon: this shard is finished, and
       (because future sends to it arrive at >= safe > horizon) its
       inbox can no longer grow below the horizon either. *)
    Engine.advance_to s.sh_engine horizon;
    publish_floor s (horizon + 1);
    s.sh_done <- true
  end
  else begin
    (* Blocked on lookahead: broadcast the clock floor (null message) so
       neighbours waiting on us can advance past our idle links. *)
    if bound > Atomic.get s.sh_publish then begin
      Atomic.set s.sh_publish bound;
      s.sh_null <- s.sh_null + 1;
      s.sh_was_blocked <- false;
      progress := true
    end
    else begin
      (* Counted per episode, not per poll: a parallel pump spins here
         via [cpu_relax] until a neighbour publishes. *)
      if not s.sh_was_blocked then s.sh_blocked <- s.sh_blocked + 1;
      s.sh_was_blocked <- true
    end
  end;
  !progress

let reset_run t =
  Array.iter
    (fun s ->
      s.sh_done <- false;
      Atomic.set s.sh_publish (Engine.now s.sh_engine))
    t.sd_shards

let run_horizon_single t ~horizon =
  let all_done = ref false in
  while not !all_done do
    let progress = ref false and d = ref true in
    Array.iter
      (fun s ->
        if not s.sh_done then begin
          if pump s ~horizon then progress := true;
          if not s.sh_done then d := false
        end)
      t.sd_shards;
    all_done := !d;
    if (not !all_done) && not !progress then
      (* Unreachable with positive lookahead: the minimal blocked bound
         always advances some publish.  Fail loudly rather than spin. *)
      failwith "Sharded.run: no shard can make progress (deadlock)"
  done

let run_horizon_parallel t ~horizon ~domains =
  let nshards = Array.length t.sd_shards in
  let domains = min domains nshards in
  let worker d () =
    (* Static shard assignment: shard i is pumped only by domain
       [i mod domains], preserving the single-writer discipline. *)
    let mine = ref [] in
    for i = nshards - 1 downto 0 do
      if i mod domains = d then mine := t.sd_shards.(i) :: !mine
    done;
    let mine = !mine in
    let all_done = ref false in
    let idle = ref 0 in
    while not !all_done do
      let progress = ref false and dn = ref true in
      List.iter
        (fun s ->
          if not s.sh_done then begin
            if pump s ~horizon then progress := true;
            if not s.sh_done then dn := false
          end)
        mine;
      all_done := !dn;
      if (not !all_done) && not !progress then begin
        (* Our shards are waiting on another domain's publishes.  Spin
           briefly — a working neighbour usually publishes within a few
           polls — then back off to real sleeps so oversubscribed hosts
           (domains > cores) yield the core to the domain being waited
           on instead of burning its timeslice busy-polling. *)
        incr idle;
        if !idle <= 200 then Domain.cpu_relax ()
        else Unix.sleepf (Float.min 1e-4 (float_of_int (!idle - 200) *. 1e-6))
      end
      else idle := 0
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
        let c = Int.min (delivery_head s) (Engine.next_at s.sh_engine) in
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
