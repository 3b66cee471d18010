(** Cluster-trace records (Google cluster-trace shaped).

    Resource demands are *relative units*: fractions of the largest
    machine in the fleet, exactly as the Google traces normalize them and
    as Table 2 reproduces for the AWS m5 family (24xlarge = 1.0). *)

type container_req = {
  c_cpu : float;  (** Relative CPU demand (1.0 = largest machine). *)
  c_mem : float;  (** Relative memory demand. *)
}

type pod = {
  p_id : int;
  p_containers : container_req list;
}

type user = {
  u_id : int;
  pods : pod list;
}

val pod_cpu : pod -> float
val pod_mem : pod -> float
val user_pods : user -> int
val user_containers : user -> int

val output_csv : out_channel -> user Seq.t -> int
(** Writes a header, then one row per container:
    [user,pod,container,cpu,mem], as it traverses the stream once.
    Returns the number of containers written. *)

val input_csv : in_channel -> user list
(** Inverse of {!output_csv}, read line by line to the end of the
    channel.  Raises [Failure] on malformed rows. *)
