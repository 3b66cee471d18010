type t = {
  exec_name : string;
  engine : Engine.t;
  account : (Cpu_account.handle * Cpu_account.category) option;
  also : (Cpu_account.handle * Cpu_account.category) list;
  slots : Time.ns array;
  cpus : Cpu_set.t option;
  label : Engine.label;  (* [exec_name]'s id, resolved once *)
}

let create ?account ?(also = []) ?(width = 1) ?cpus engine ~name =
  if width <= 0 then invalid_arg "Exec.create: width must be > 0";
  let resolve (acct, entity, cat) = (Cpu_account.handle acct ~entity, cat) in
  { exec_name = name; engine; account = Option.map resolve account;
    also = List.map resolve also; slots = Array.make width 0;
    cpus; label = Engine.label engine name }

let name t = t.exec_name

let min_slot t =
  let best = ref 0 in
  for i = 1 to Array.length t.slots - 1 do
    if t.slots.(i) < t.slots.(!best) then best := i
  done;
  !best

let rec charge_also cost = function
  | [] -> ()
  | (h, cat) :: rest ->
    Cpu_account.charge_handle h cat cost;
    charge_also cost rest

(* Books [cost] ns of work on the least busy slot (and, when bound, a
   core of the set), charges it to the accounts and returns its
   completion date. *)
let book t ~cost =
  let cost = Int.max 0 cost in
  let now = Engine.now t.engine in
  let slot = min_slot t in
  let slot_free = Int.max now t.slots.(slot) in
  let finish =
    match t.cpus with
    | None -> slot_free + cost
    | Some set ->
      let core = Cpu_set.book set ~ready:slot_free in
      let finish = Int.max slot_free (Cpu_set.free_at set core) + cost in
      Cpu_set.commit set core ~finish;
      finish
  in
  t.slots.(slot) <- finish;
  (match t.account with
  | None -> ()
  | Some (h, cat) -> Cpu_account.charge_handle h cat cost);
  charge_also cost t.also;
  finish

let charge t ~cost = ignore (book t ~cost : Time.ns)

(* Returns the completion time so callers that need timing (latency
   provenance) can recover [start = finish - cost] without any
   allocation on the common path. *)
let submit_timed t ~cost k =
  let finish = book t ~cost in
  Engine.schedule_labeled t.engine t.label ~at:finish k;
  finish

let submit t ~cost k = ignore (submit_timed t ~cost k : Time.ns)

let engine t = t.engine

let busy_until t = t.slots.(min_slot t)
