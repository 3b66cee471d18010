(** Ethernet MAC addresses (48 bits, stored in an [int]). *)

type t [@@immediate]

val broadcast : t
val is_broadcast : t -> bool

val of_int : int -> t
(** Masks the argument to 48 bits. *)

val to_int : t -> int

val of_string : string -> t
(** Parses ["aa:bb:cc:dd:ee:ff"].  Raises [Invalid_argument] on bad input. *)

val to_string : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** An integer mix of the address, not [Hashtbl.hash]. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by MAC address: monomorphic equality and {!hash}.
    Their bucket order is not a generic [Hashtbl]'s, so a fold whose
    result depends on it must sort. *)

(** Deterministic allocator of locally-administered unicast addresses. *)
module Alloc : sig
  type alloc

  val create : unit -> alloc
  (** Allocates under the QEMU/KVM OUI 0x525400 (the top 24 bits). *)

  val fresh : alloc -> t
end
