(** IPv4 addresses and CIDR prefixes (stored in an [int], 32 bits). *)

type t [@@immediate]

val of_string : string -> t
(** Parses dotted-quad notation.  Raises [Invalid_argument] on bad input. *)

val to_string : t -> string
val of_int : int -> t
val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** An integer mix of the address, not [Hashtbl.hash]. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by IPv4 address: monomorphic equality and {!hash}.
    Their bucket order is not a generic [Hashtbl]'s, so a fold whose
    result depends on it must sort. *)

val localhost : t
(** 127.0.0.1 *)

val any : t
(** 0.0.0.0 *)

type cidr = { base : t; prefix : int }

val cidr_of_string : string -> cidr
(** Parses ["10.0.0.0/24"]; the base is masked to the prefix. *)

val cidr_to_string : cidr -> string
val in_subnet : cidr -> t -> bool
val network : cidr -> t
val broadcast_addr : cidr -> t

val host : cidr -> int -> t
(** [host c i] is the [i]-th host address ([network + i]).  Raises
    [Invalid_argument] if out of range. *)

val host_count : cidr -> int
(** Number of usable host addresses (excludes network and broadcast for
    prefixes < 31). *)
