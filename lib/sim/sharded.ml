(* Conservative sharded event loops, synchronised in lookahead windows.

   Each shard is a plain {!Engine.t}; cross-shard traffic rides
   timestamped links whose [lookahead] lower-bounds every message delay.
   Let L be the smallest lookahead over links between two different
   shards.  A run proceeds in windows: from T, the earliest pending work
   item on any shard, every shard executes its work dated below T + L
   (and not past the horizon), then all shards meet at a barrier.  A
   cross-shard send made in the window, at a date >= T, lands at >= T +
   L: beyond the window.  So a shard needs nothing from its neighbours
   while a window lasts, and the shards of one window run in parallel
   without talking.  This is the bounded-lag rule (Lubachevsky, CACM
   32(1) 1989; Nicol, J. ACM 40(2) 1993).

   A cross-shard send appends to the outbox of its (source, destination)
   pair: one writer, the source's domain, while the window lasts, and
   one reader, the barrier, after it, so no lock.  The last domain to
   reach the barrier does the barrier's work alone while the others
   wait: it charges the window to its busiest shard, merges every outbox
   into its destination's inbox heap and sets the next T.  A send on a
   link whose source is its destination goes straight into the shard's
   own inbox heap, whose only writer is its owner, and may land inside
   the current window.  With no cross-shard link there is one window,
   the horizon, and no barrier: a 1-shard group runs its engine straight
   through.

   Determinism does not depend on scheduling.  Windows follow from
   event dates alone, and every delivery dated inside a window is in its
   inbox before the window starts (a self-link's before its own date).
   So per shard, work executes in (date, deliveries before local events,
   link key, per-link send order / queue seq) order however many
   domains pump, and [shards=N, domains=D] is byte-identical to
   [shards=N, domains=1]. *)

type msg = {
  m_at : int;                      (* delivery date *)
  m_key : int;                     (* the link's creation key *)
  m_seq : int;                     (* per-link send order *)
  m_label : Engine.label;          (* resolved in the destination engine *)
  m_fn : unit -> unit;
}

(* A growable array of messages: a shard's inbox keeps it as a binary
   min-heap by (date, link key, send order), an outbox in send order. *)
type buf = { mutable b_msgs : msg array; mutable b_len : int }

type link = {
  l_src : int;
  l_dst : int;
  l_key : int;                     (* creation order: delivery tie-break *)
  l_lookahead : int;
  l_label : Engine.label;
  l_out : buf option;              (* the pair's outbox; None on a self-link *)
  mutable l_sent : int;
}

type shard = {
  sh_ix : int;
  sh_engine : Engine.t;
  sh_inbox : buf;
  mutable sh_outs : (int * buf) list;  (* (source, outbox) of each pair in *)
  mutable sh_mark : int;           (* events executed when the window began *)
  (* Cumulative counters (see {!stats}). *)
  mutable sh_delivered : int;
  mutable sh_critical : int;
}

type t = {
  sd_shards : shard array;
  mutable sd_links : int;
  mutable sd_lookahead : int;      (* smallest cross-shard; max_int = none *)
  mutable sd_windows : int;
}

let golden = 0x9E3779B97F4A7C15L

let create ?(seed = 0x5EEDL) ~shards () =
  if shards <= 0 then invalid_arg "Sharded.create: shards must be > 0";
  let mk i =
    (* Shard 0 keeps the root seed, so a 1-shard group draws exactly
       what a plain [Engine.create ~seed] would.  Other sub-engine seeds
       only have to be distinct and deterministic; scenario streams that
       must survive re-partitioning are split from per-node seeds, not
       from these. *)
    let s =
      if i = 0 then seed
      else Int64.add seed (Int64.mul golden (Int64.of_int i))
    in
    {
      sh_ix = i;
      sh_engine = Engine.create ~seed:s ();
      sh_inbox = { b_msgs = [||]; b_len = 0 };
      sh_outs = [];
      sh_mark = 0;
      sh_delivered = 0;
      sh_critical = 0;
    }
  in
  { sd_shards = Array.init shards mk; sd_links = 0; sd_lookahead = max_int;
    sd_windows = 0 }

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
  let out =
    if src = dst then None
    else begin
      t.sd_lookahead <- min t.sd_lookahead lookahead;
      let d = t.sd_shards.(dst) in
      match List.assoc_opt src d.sh_outs with
      | Some ob -> Some ob
      | None ->
        let ob = { b_msgs = [||]; b_len = 0 } in
        d.sh_outs <- (src, ob) :: d.sh_outs;
        Some ob
    end
  in
  let l =
    { l_src = src; l_dst = dst; l_key = t.sd_links; l_lookahead = lookahead;
      l_label = Engine.label t.sd_shards.(dst).sh_engine label; l_out = out;
      l_sent = 0 }
  in
  t.sd_links <- t.sd_links + 1;
  l

(* Fills vacated slots so a delivered closure becomes unreachable at
   once instead of pinning its captures until the slot is reused. *)
let vacant =
  { m_at = max_int; m_key = 0; m_seq = 0; m_label = Engine.unlabeled;
    m_fn = ignore }

let append b m =
  if b.b_len = Array.length b.b_msgs then begin
    let nb = Array.make (max 16 (2 * b.b_len)) vacant in
    Array.blit b.b_msgs 0 nb 0 b.b_len;
    b.b_msgs <- nb
  end;
  b.b_msgs.(b.b_len) <- m;
  b.b_len <- b.b_len + 1

(* The inbox heap.  {!Heap} orders by (prio, insertion) only; the inbox
   needs the link key in between. *)

let before a b =
  a.m_at < b.m_at
  || a.m_at = b.m_at
     && (a.m_key < b.m_key || (a.m_key = b.m_key && a.m_seq < b.m_seq))

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

let heap_push ib m =
  append ib m;
  sift_up ib.b_msgs (ib.b_len - 1)

let heap_pop ib =
  let h = ib.b_msgs in
  let top = h.(0) in
  ib.b_len <- ib.b_len - 1;
  h.(0) <- h.(ib.b_len);
  h.(ib.b_len) <- vacant;
  sift_down h ib.b_len 0;
  top

let send t l ~delay fn =
  if delay < l.l_lookahead then
    invalid_arg "Sharded.send: delay below the link's declared lookahead";
  let m =
    { m_at = Engine.now t.sd_shards.(l.l_src).sh_engine + delay;
      m_key = l.l_key; m_seq = l.l_sent; m_label = l.l_label; m_fn = fn }
  in
  l.l_sent <- l.l_sent + 1;
  match l.l_out with
  | Some ob -> append ob m
  | None -> heap_push t.sd_shards.(l.l_dst).sh_inbox m

(* Date of the earliest delivery in an inbox; max_int when empty. *)
let head ib = if ib.b_len = 0 then max_int else ib.b_msgs.(0).m_at

(* Executes [s]'s work dated [<= last]; deliveries beat local events on
   equal dates. *)
let rec pump s ~last =
  let ib = s.sh_inbox in
  let da = head ib and wa = Engine.next_at s.sh_engine in
  if da <= wa then begin
    if da <= last then begin
      let m = heap_pop ib in
      Engine.run_external s.sh_engine ~at:m.m_at m.m_label m.m_fn;
      s.sh_delivered <- s.sh_delivered + 1;
      pump s ~last
    end
  end
  else if wa <= last then begin
    ignore (Engine.step s.sh_engine);
    pump s ~last
  end

let rec merge_outs ib = function
  | [] -> ()
  | (_, ob) :: rest ->
    for i = 0 to ob.b_len - 1 do
      heap_push ib ob.b_msgs.(i);
      ob.b_msgs.(i) <- vacant
    done;
    ob.b_len <- 0;
    merge_outs ib rest

(* Merges every outbox into its destination's inbox, then returns the
   earliest pending work item on any shard. *)
let settle t =
  let sh = t.sd_shards and g = ref max_int in
  for i = 0 to Array.length sh - 1 do
    let s = sh.(i) in
    merge_outs s.sh_inbox s.sh_outs;
    g := Int.min !g (Int.min (head s.sh_inbox) (Engine.next_at s.sh_engine))
  done;
  !g

(* Charges the events since the last mark to the busiest shard (the
   lowest index on ties) and moves every mark. *)
let charge t =
  let sh = t.sd_shards in
  let best = ref 0 and most = ref (-1) in
  for i = 0 to Array.length sh - 1 do
    let s = sh.(i) in
    let e = Engine.events_processed s.sh_engine in
    if e - s.sh_mark > !most then begin
      best := i;
      most := e - s.sh_mark
    end;
    s.sh_mark <- e
  done;
  let s = sh.(!best) in
  s.sh_critical <- s.sh_critical + !most

(* The window from [start]: its last executable date, inclusive. *)
let window_last t ~horizon start =
  if t.sd_lookahead > horizon - start then horizon
  else start + t.sd_lookahead - 1

(* The barrier, and what it hands every domain for the next window.
   Domains count rounds, so a waiter knows which round it waits out. *)
type window = {
  mutable w_last : int;
  mutable w_over : bool;           (* the horizon is reached *)
  w_parties : int;
  w_spins : int;                   (* polls before a waiter blocks *)
  w_arrived : int Atomic.t;
  w_round : int Atomic.t;          (* barriers passed *)
  w_sleepers : int Atomic.t;
  w_mu : Mutex.t;
  w_cv : Condition.t;
  w_failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* the first exception an event raised *)
}

(* Polls before a waiting domain blocks, when every domain has a core:
   a working neighbour usually arrives within a window's imbalance, a
   few microseconds.  When domains outnumber the cores, the domain
   waited on may be one the waiter keeps off a core, so a waiter blocks
   at once. *)
let spin_polls ~parties =
  if parties <= Domain.recommended_domain_count () then 2000 else 0

(* The last domain to arrive closes the window, alone. *)
let close_window t w ~horizon =
  charge t;
  t.sd_windows <- t.sd_windows + 1;
  let next = settle t in
  if next > horizon || Option.is_some (Atomic.get w.w_failed) then
    w.w_over <- true
  else w.w_last <- window_last t ~horizon next

let release w round =
  Atomic.set w.w_arrived 0;
  Atomic.set w.w_round (round + 1);
  (* A sleeper raised [w_sleepers] before its last look at [w_round];
     both are SC atomics, so either it saw the new round or we see it. *)
  if Atomic.get w.w_sleepers > 0 then begin
    Mutex.lock w.w_mu;
    Condition.broadcast w.w_cv;
    Mutex.unlock w.w_mu
  end

let await w round =
  let polls = ref 0 in
  while Atomic.get w.w_round = round && !polls < w.w_spins do
    Domain.cpu_relax ();
    incr polls
  done;
  if Atomic.get w.w_round = round then begin
    Mutex.lock w.w_mu;
    Atomic.incr w.w_sleepers;
    while Atomic.get w.w_round = round do
      Condition.wait w.w_cv w.w_mu
    done;
    Atomic.decr w.w_sleepers;
    Mutex.unlock w.w_mu
  end

(* Domain [d] of [w_parties] pumps the shards [i] with [i mod w_parties =
   d], so each shard keeps one writer. *)
let worker t w ~horizon d () =
  let sh = t.sd_shards and synced = t.sd_lookahead < max_int in
  let round = ref 0 and fin = ref false in
  while not !fin do
    (* An event that raises ends the run, but this domain still reaches
       the barrier: the others would wait for it forever. *)
    (try
       let i = ref d in
       while !i < Array.length sh do
         pump sh.(!i) ~last:w.w_last;
         i := !i + w.w_parties
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set w.w_failed None (Some (e, bt))));
    if not synced then fin := true
    else begin
      if Atomic.fetch_and_add w.w_arrived 1 = w.w_parties - 1 then begin
        close_window t w ~horizon;
        release w !round
      end
      else await w !round;
      incr round;
      fin := w.w_over
    end
  done

let run ~until ?(domains = 1) t =
  let parties = max 1 (min domains (Array.length t.sd_shards)) in
  Domain_pool.check_parties ~who:"Sharded.run" parties;
  let horizon = until in
  let start = settle t in
  Array.iter
    (fun s -> s.sh_mark <- Engine.events_processed s.sh_engine)
    t.sd_shards;
  if start <= horizon then begin
    let w =
      { w_last = window_last t ~horizon start; w_over = false;
        w_parties = parties; w_spins = spin_polls ~parties;
        w_arrived = Atomic.make 0;
        w_round = Atomic.make 0; w_sleepers = Atomic.make 0;
        w_mu = Mutex.create (); w_cv = Condition.create ();
        w_failed = Atomic.make None }
    in
    let others =
      List.init (parties - 1) (fun i ->
          Domain.spawn (worker t w ~horizon (i + 1)))
    in
    worker t w ~horizon 0 ();
    List.iter Domain.join others;
    Option.iter
      (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Atomic.get w.w_failed);
    (* The one window of a group without cross-shard links. *)
    if t.sd_lookahead = max_int then charge t
  end;
  Array.iter (fun s -> Engine.advance_to s.sh_engine horizon) t.sd_shards

type shard_stats = {
  ss_shard : int;
  ss_clock : Time.ns;
  ss_events : int;
  ss_delivered : int;
  ss_windows : int;
  ss_critical : int;
  ss_pending : int;
}

let stats t =
  Array.map
    (fun s ->
      {
        ss_shard = s.sh_ix;
        ss_clock = Engine.now s.sh_engine;
        ss_events = Engine.events_processed s.sh_engine;
        ss_delivered = s.sh_delivered;
        ss_windows = t.sd_windows;
        ss_critical = s.sh_critical;
        ss_pending =
          Engine.pending s.sh_engine + s.sh_inbox.b_len
          + List.fold_left (fun a (_, ob) -> a + ob.b_len) 0 s.sh_outs;
      })
    t.sd_shards
