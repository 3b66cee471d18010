(* Per-packet latency provenance.

   A provenance record rides (optionally) on a frame/packet through the
   datapath.  Every hop that services the packet appends one entry with
   three timestamps: when the packet was handed to the hop ([enqueue_ns]),
   when the hop's execution context actually started working on it
   ([start_ns]), and when service completed ([end_ns]).  The end-to-end
   latency of a linear path then decomposes exactly into per-hop queueing
   ([start - enqueue]) and service ([end - start]) time — the attribution
   the paper's Figs. 1/6/7 argue from.

   Records are pay-for-use: a packet without one costs the datapath
   nothing (see [Hop.service_prov]).  At fan-out points (bridge floods,
   Hostlo reflection) the record is [branch]ed so each copy accumulates
   only its own path; branches share the common prefix structurally. *)

type entry = {
  hop : string;
  enqueue_ns : Time.ns;  (* handed to the hop *)
  start_ns : Time.ns;    (* service began (>= enqueue: queueing) *)
  end_ns : Time.ns;      (* service completed *)
}

type t = { mutable rev_entries : entry list (* newest first *) }

(* 1-in-N sampling knob.  Minting one record per packet is the dominant
   cost of provenance-on runs (+330 % on the netperf kernel); sampling
   trades per-packet coverage for rate.  The knob is global and read by
   the producers ([Stack.fresh_prov]) through a deterministic per-
   namespace tick counter, so results stay reproducible across runs and
   across [--jobs N].  Atomic because experiment cells run in domains. *)
let sampling_every = Atomic.make 1
let set_sampling n = Atomic.set sampling_every (max 1 n)
let sampling () = Atomic.get sampling_every

let create () = { rev_entries = [] }

let add t ~hop ~enqueue_ns ~start_ns ~end_ns =
  t.rev_entries <- { hop; enqueue_ns; start_ns; end_ns } :: t.rev_entries

(* Zero-duration marker (e.g. a NAT rewrite) pinned to the completion of
   the previous hop — exactly "now" for a rewrite running inside that
   hop's continuation, and needing no clock to compute. *)
let mark_after t ~hop =
  let ts = match t.rev_entries with e :: _ -> e.end_ns | [] -> 0 in
  add t ~hop ~enqueue_ns:ts ~start_ns:ts ~end_ns:ts

(* Fork at a fan-out point: the new record shares the (immutable) prefix
   and accumulates its own suffix. *)
let branch t = { rev_entries = t.rev_entries }

let entries t = List.rev t.rev_entries
let length t = List.length t.rev_entries
let is_empty t = t.rev_entries = []

let queue_ns e = e.start_ns - e.enqueue_ns
let service_ns e = e.end_ns - e.start_ns

(* Sum of per-hop queue + service time. *)
let attributed_ns t =
  List.fold_left
    (fun acc e -> acc + (e.end_ns - e.enqueue_ns))
    0 t.rev_entries

(* First enqueue to last completion.  On a linear path with contiguous
   hops this equals [attributed_ns]; any difference is unattributed time
   (pure delays between hops). *)
let total_ns t =
  match t.rev_entries with
  | [] -> 0
  | last :: _ ->
    let rec first = function [ e ] -> e | _ :: tl -> first tl | [] -> last in
    last.end_ns - (first t.rev_entries).enqueue_ns

let gap_ns t = total_ns t - attributed_ns t

let hops t = List.rev_map (fun e -> e.hop) t.rev_entries
