type category = Usr | Sys | Soft | Guest | Irq

let category_index = function Usr -> 0 | Sys -> 1 | Soft -> 2 | Guest -> 3 | Irq -> 4
let all_categories = [ Usr; Sys; Soft; Guest; Irq ]

let category_to_string = function
  | Usr -> "usr"
  | Sys -> "sys"
  | Soft -> "soft"
  | Guest -> "guest"
  | Irq -> "irq"

(* [epoch] counts resets, so a {!handle}'s cached row is recognised as
   stale once the table it came from has been cleared. *)
type t = { rows : (string, int array) Hashtbl.t; mutable epoch : int }

let create () = { rows = Hashtbl.create 32; epoch = 0 }

let row t entity =
  match Hashtbl.find_opt t.rows entity with
  | Some r -> r
  | None ->
    let r = Array.make 5 0 in
    Hashtbl.add t.rows entity r;
    r

type handle = {
  h_acct : t;
  h_entity : string;
  mutable h_row : int array;
  mutable h_epoch : int;  (* [h_acct.epoch] when [h_row] was resolved *)
}

let handle t ~entity =
  { h_acct = t; h_entity = entity; h_row = [||]; h_epoch = -1 }

(* The row is resolved at the first charge, so [entities] lists only
   the entities something was charged to; a reset invalidates it. *)
let charge_handle h cat ns =
  if h.h_epoch <> h.h_acct.epoch then begin
    h.h_row <- row h.h_acct h.h_entity;
    h.h_epoch <- h.h_acct.epoch
  end;
  let i = category_index cat in
  h.h_row.(i) <- h.h_row.(i) + ns

let get t ~entity cat =
  match Hashtbl.find_opt t.rows entity with
  | None -> 0
  | Some r -> r.(category_index cat)

let entity_total t ~entity =
  match Hashtbl.find_opt t.rows entity with
  | None -> 0
  | Some r -> Array.fold_left ( + ) 0 r

let entities t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rows []
  |> List.sort_uniq String.compare

let reset t =
  Hashtbl.reset t.rows;
  t.epoch <- t.epoch + 1

let snapshot t =
  entities t
  |> List.map (fun e ->
         (e, List.map (fun c -> (c, get t ~entity:e c)) all_categories))
