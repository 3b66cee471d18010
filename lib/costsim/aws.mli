(** AWS EC2 on-demand m5 models — Table 2 of the paper, verbatim.

    Relative capacities are fractions of the largest model (24xlarge),
    matching the trace's normalized resource units. *)

type model = {
  model_name : string;
  vcpus : int;
  mem_gb : int;
  price_per_hour : float;  (** USD. *)
}

val models : model list
(** Ascending by price: large .. 24xlarge. *)

val rel_cpu : model -> float
(** vCPUs / 96. *)

val rel_mem : model -> float
(** Memory / 384 GB. *)

val cheapest_fitting : cpu:float -> mem:float -> model option
(** Cheapest model whose relative capacity covers the demand; [None] if
    even 24xlarge cannot (the caller must split). *)

val pp_model : Format.formatter -> model -> unit

val table2_rows : (string * int * int * float * float * float) list
(** (name, vCPU, mem GB, rel vCPU, rel mem, $/h) — for regenerating
    Table 2. *)
