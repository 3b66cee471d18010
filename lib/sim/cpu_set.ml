(* The cores' busy dates, kept sorted ascending.  Cores are
   interchangeable: a caller sees one only through [book], [free_at] and
   [commit], so which position holds which date is never observable,
   only the multiset of dates, and every start date follows from it. *)
type t = { busy : Time.ns array }
(* A record, not the bare array: with [t = Time.ns array] perfbench's
   rr_nat ran about 15 % slower (interleaved runs, 2-core host). *)

let create ~cores =
  if cores <= 0 then invalid_arg "Cpu_set.create: cores must be > 0";
  { busy = Array.make cores 0 }

let book t ~ready =
  (* Best fit: the latest date <= [ready]; else the earliest date, at 0.
     The walk down passes only the cores busy beyond [ready]. *)
  let busy = t.busy in
  let i = ref (Array.length busy - 1) in
  while !i >= 0 && busy.(!i) > ready do
    decr i
  done;
  Int.max 0 !i

let free_at t core = t.busy.(core)

(* Replaces the date at [core] with [finish] and moves it into place.
   [Exec] never commits a date below the booked one, so only the first
   loop runs there. *)
let commit t core ~finish =
  let busy = t.busy in
  let n = Array.length busy in
  let i = ref core in
  while !i + 1 < n && busy.(!i + 1) < finish do
    busy.(!i) <- busy.(!i + 1);
    incr i
  done;
  while !i > 0 && busy.(!i - 1) > finish do
    busy.(!i) <- busy.(!i - 1);
    decr i
  done;
  busy.(!i) <- finish

let busy_cores t ~now =
  let busy = t.busy in
  let i = ref (Array.length busy - 1) in
  while !i >= 0 && busy.(!i) > now do
    decr i
  done;
  Array.length busy - 1 - !i
