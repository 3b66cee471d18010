type category = Usr | Sys | Soft | Guest | Irq

let category_index = function Usr -> 0 | Sys -> 1 | Soft -> 2 | Guest -> 3 | Irq -> 4
let all_categories = [ Usr; Sys; Soft; Guest; Irq ]

let category_to_string = function
  | Usr -> "usr"
  | Sys -> "sys"
  | Soft -> "soft"
  | Guest -> "guest"
  | Irq -> "irq"

type t = (string, int array) Hashtbl.t

let create () : t = Hashtbl.create 32

let row t entity =
  match Hashtbl.find_opt t entity with
  | Some r -> r
  | None ->
    let r = Array.make 5 0 in
    Hashtbl.add t entity r;
    r

type handle = { h_acct : t; h_entity : string; mutable h_row : int array }

let handle t ~entity = { h_acct = t; h_entity = entity; h_row = [||] }

(* The row is resolved at the first charge, so [entities] lists only
   the entities something was charged to. *)
let charge_handle h cat ns =
  if Array.length h.h_row = 0 then h.h_row <- row h.h_acct h.h_entity;
  let i = category_index cat in
  h.h_row.(i) <- h.h_row.(i) + ns

let get t ~entity cat =
  match Hashtbl.find_opt t entity with
  | None -> 0
  | Some r -> r.(category_index cat)

let entity_total t ~entity =
  match Hashtbl.find_opt t entity with
  | None -> 0
  | Some r -> Array.fold_left ( + ) 0 r

let entities t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t []
  |> List.sort_uniq String.compare

let snapshot t =
  entities t
  |> List.map (fun e ->
         (e, List.map (fun c -> (c, get t ~entity:e c)) all_categories))
