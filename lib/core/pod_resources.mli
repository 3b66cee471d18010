(** §4.3 — the two other pod-shared resources a cross-VM deployment must
    carry: volumes and shared memory.

    The paper defers the mechanics to prior work (VirtFS for cross-guest
    file systems, MemPipe for cross-VM shared memory) and only requires
    the orchestrator/VMM synchronization hooks.  This module implements
    those hooks with their safety invariants:

    - a volume mounted into fractions on several VMs must be backed by a
      sharing-capable filesystem (VirtFS) — a plain block mount into two
      guests would corrupt state (§4.3.1);
    - a pod's shared-memory segment attached from several VMs must be
      backed by a cross-VM transport (MemPipe); attachments are only
      legal from fractions of the owning pod (§4.3.2). *)

type backend = Local | Virtfs
type shm_backend = Guest_local | Mempipe

module Volumes : sig
  type t

  val create : unit -> t

  val declare : t -> pod:string -> volume:string -> backend -> unit
  (** Raises [Failure] on duplicate declaration. *)

  val mount : t -> pod:string -> volume:string -> vm:string -> unit
  (** Records a mount of the pod's volume into a VM.  Raises [Failure] if
      the volume is undeclared, or if a [Local]-backed volume would
      become visible from a second VM. *)

  val mounts : t -> pod:string -> volume:string -> string list
end

module Shm : sig
  type t

  val create : unit -> t

  val register : t -> pod:string -> segment:string -> shm_backend -> unit
  val attach : t -> pod:string -> segment:string -> vm:string -> unit
  (** Raises [Failure] for unknown segments, or when a [Guest_local]
      segment would be attached from a second VM. *)
end
