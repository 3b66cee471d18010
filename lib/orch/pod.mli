(** Pod specifications (Kubernetes's unit of scheduling): a set of
    logically coupled containers sharing network identity (and volumes /
    shared memory, see lib/core/pod_resources). *)

type container_spec = {
  cs_name : string;
  image : Nest_container.Image.t;
  cpu : float;  (** requested cores. *)
  mem : float;  (** requested GB. *)
}

type volume_decl = {
  vol_name : string;
  shared_fs : bool;
      (** [true] = backed by a sharing-capable filesystem (VirtFS):
          mountable from several VMs; [false] = plain local backing,
          single-VM only (see lib/core/pod_resources, §4.3.1). *)
}

type t = {
  pod_name : string;
  containers : container_spec list;
  volumes : volume_decl list;
}

val make : name:string -> ?volumes:volume_decl list -> container_spec list -> t
val volume : name:string -> ?shared_fs:bool -> unit -> volume_decl
(** [shared_fs] defaults to false (plain local volume). *)

val container :
  name:string ->
  ?image:Nest_container.Image.t ->
  ?cpu:float ->
  ?mem:float ->
  unit ->
  container_spec

val cpu_total : t -> float
val mem_total : t -> float
