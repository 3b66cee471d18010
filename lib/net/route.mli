(** Routing table with longest-prefix-match lookup. *)

type entry = {
  dst : Ipv4.cidr;
  gateway : Ipv4.t option;  (** [None] for on-link routes. *)
  dev : Dev.t;
  src : Ipv4.t option;      (** Preferred source address. *)
}

type t

val create : unit -> t
val add : t -> dst:Ipv4.cidr -> dev:Dev.t -> ?src:Ipv4.t -> unit -> unit
(** An on-link route. *)

val add_default : t -> gateway:Ipv4.t -> dev:Dev.t -> unit -> unit
(** 0.0.0.0/0 via [gateway]. *)

val lookup : t -> Ipv4.t -> entry
(** Longest matching prefix; among equal prefixes the most recently added
    entry wins.  Raises [Not_found] when no route matches. *)

val next_hop : entry -> Ipv4.t -> Ipv4.t
(** Gateway if set, otherwise the destination itself (on-link). *)

val remove_dev : t -> Dev.t -> unit
