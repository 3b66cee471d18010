(** Netfilter-style hook chains.

    Each namespace's IP stack runs packets through five hooks (the Linux
    ones).  Rules match on the packet plus ingress/egress device names
    (iptables' [-i]/[-o]) and can accept, drop or rewrite the packet.
    These chains are where Docker and the VMM install their NAT — the
    per-packet hook work is the "soft" CPU the paper measures netfilter
    consuming (§5.2.3). *)

type hook = Prerouting | Input | Forward | Output | Postrouting

type verdict =
  | Accept
  | Drop
  | Mangle of Packet.t  (** Continue traversal with the rewritten packet. *)

type rule = {
  matches : in_dev:string -> out_dev:string -> Packet.t -> bool;
      (** [in_dev]/[out_dev] are the ingress and egress device names,
          [""] when unknown at this hook. *)
  action : Packet.t -> verdict;
}

type t

val create : unit -> t
val append : t -> hook -> rule -> unit

val run : t -> hook -> in_dev:string -> out_dev:string -> Packet.t -> verdict
(** Runs the hook's rules in insertion order on a packet crossing
    [in_dev]/[out_dev] ([""] when unknown), which the rules receive as
    they are.  The verdict is [Drop] when a rule dropped the packet,
    [Accept] when it passed unchanged, and [Mangle p] when it passed
    rewritten, [p] being the last rule's rewrite ([Mangle] continues
    with the subsequent rules).  The traversal itself allocates nothing:
    only a rule's own [action] (a NAT rewrite) may. *)

val passed : Packet.t -> verdict -> Packet.t
(** [passed pkt v] is the packet a non-[Drop] verdict of {!run} on
    [pkt] lets through: the rewrite of a [Mangle], else [pkt]. *)

val rule_count : t -> hook -> int

val total_rules : t -> int
(** Sum of {!rule_count} over the five hooks, in O(1): kept up to date
    by {!append}. *)
