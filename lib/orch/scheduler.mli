(** Pod scheduling policies.

    The paper's cost simulation (§5.3.1) uses Kubernetes's "most
    requested" priority: among feasible nodes, prefer the one whose
    resources are already the most requested — a consolidation
    (bin-packing) strategy. *)

val most_requested : Node.t list -> cpu:float -> mem:float -> Node.t option
(** Feasible node with the highest {!Node.requested_fraction}; ties break
    toward the earliest node in the list.  [None] when nothing fits. *)

val least_requested : Node.t list -> cpu:float -> mem:float -> Node.t option
(** The spreading policy (for ablations). *)

(** Exact placement index for {!most_requested}: the same answer as the
    fold, without examining every node.

    The nodes sit in a balanced tree ordered the way the fold prefers
    them (highest {!Node.requested_fraction} first, earlier list
    position on ties), and each subtree carries the largest free CPU
    and free memory among its nodes.  {!place} walks that order and
    returns the first node that {!Node.fits}, skipping a subtree only
    when its free maxima prove that none of its nodes can fit.  The
    bound has a margin far above float rounding, and every candidate is
    decided by the exact [fits] call, so the choice is always the
    fold's.  Reserve, release and place cost O(log n) tree steps plus
    the subtrees the bounds cannot rule out.

    The index owns the requested resources of its nodes: while it is in
    use, every reserve and release on them must go through it (it does
    not see direct {!Node.reserve} calls).  Readiness may change at any
    time ({!Node.set_ready}); [place] sees it through [fits]. *)
module Index : sig
  type t

  val create : Node.t list -> t
  (** Indexes the nodes in list order: positions are list indices.
      The nodes must be distinct.  Raises [Invalid_argument] on a node
      whose capacity is not positive and finite. *)

  val place : t -> cpu:float -> mem:float -> int option
  (** Chooses the node {!most_requested} would choose over the list,
      reserves the request on it, and returns its position; [None]
      (and no change) when nothing fits. *)

  val release : t -> int -> cpu:float -> mem:float -> unit
  (** [release t i ~cpu ~mem] releases a request from the node at
      position [i] ({!Node.release}). *)

  val node : t -> int -> Node.t
  (** The node at a position. *)

  val examined : t -> int
  (** Tree nodes visited by all {!place} calls so far: the work
      counter behind the index's cost, where the fold examines every
      node on every call. *)
end
