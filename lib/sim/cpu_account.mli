(** CPU-time accounting by (entity, category), mirroring the paper's CPU
    breakdowns (Figs. 6, 7, 14, 15).

    Entities are free-form names ("vm1", "host", "memcached-server", ...).
    Categories follow the paper's taxonomy: [usr] application work, [sys]
    kernel work excluding interrupts, [soft] kernel servicing software
    interrupts (where netfilter NAT hooks run), [guest] host CPU time given
    to a guest VM, [irq] hardware interrupt service. *)

type category = Usr | Sys | Soft | Guest | Irq

val category_to_string : category -> string
val all_categories : category list

val category_index : category -> int
(** Stable dense index in [0, 4], in {!all_categories} order. *)

type t

val create : unit -> t

type handle
(** One entity's row, for callers that charge it on every event: the
    name is looked up once, at the first charge, instead of per charge. *)

val handle : t -> entity:string -> handle
(** Creates no row: the entity appears in {!entities} only once charged. *)

val charge_handle : handle -> category -> Time.ns -> unit
(** Adds to the handle's entity row, created at its first charge. *)

val get : t -> entity:string -> category -> Time.ns
(** 0 for unknown entities. *)

val entity_total : t -> entity:string -> Time.ns
val entities : t -> string list
(** Sorted, deduplicated. *)

val snapshot : t -> (string * (category * Time.ns) list) list
(** Sorted by entity, each with all five categories. *)
