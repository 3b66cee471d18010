type t = { set_name : string; busy : Time.ns array }

let create ~cores ~name =
  if cores <= 0 then invalid_arg "Cpu_set.create: cores must be > 0";
  { set_name = name; busy = Array.make cores 0 }

let cores t = Array.length t.busy
let name t = t.set_name

let book t ~ready =
  (* Best fit among already-free cores; earliest-available otherwise.
     A plain loop over unboxed refs: this runs on every submission. *)
  let best_free = ref (-1) and earliest = ref 0 in
  for i = 0 to Array.length t.busy - 1 do
    let v = t.busy.(i) in
    if v <= ready && (!best_free < 0 || v > t.busy.(!best_free)) then
      best_free := i;
    if v < t.busy.(!earliest) then earliest := i
  done;
  if !best_free >= 0 then !best_free else !earliest

let free_at t core = t.busy.(core)

let commit t core ~finish = t.busy.(core) <- finish

let busy_cores t ~now =
  Array.fold_left (fun acc v -> if v > now then acc + 1 else acc) 0 t.busy
