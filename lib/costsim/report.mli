(** Per-user cost outcomes and the Fig. 9 aggregation. *)

type outcome = {
  user_id : int;
  kube_cost : float;      (** $/h under whole-pod scheduling. *)
  hostlo_cost : float;    (** $/h after the Hostlo pass. *)
  hostlo_standby_cost : float;
      (** $/h with [standby_depth] pooled endpoints pinned per
          (VM, split pod) — the memory the Hostlo CNI's standby pool
          holds for QMP-free failover, priced by re-buying any VM the
          pool pushes over its model's capacity.  Equals [hostlo_cost]
          at depth 0. *)
  split_pods : int;       (** Pods with containers on more than one VM. *)
  kube_vms : int;
  hostlo_vms : int;
  saving : float;         (** $/h saved (>= 0). *)
  rel_saving : float;     (** saving / kube_cost, in [0,1]. *)
}

type summary = {
  users : int;
  users_with_savings : int;
  frac_with_savings : float;          (** Paper: ~11.4 %. *)
  frac_savers_over_5pct : float;      (** Paper: ~66.7 % of savers. *)
  max_rel_saving : float;             (** Paper: ~40 %. *)
  max_abs_saving : float;             (** Paper: ~237 $/h. *)
  max_abs_saving_rel : float;         (** Paper: ~35 %. *)
  total_kube_cost : float;
  total_hostlo_cost : float;
  total_standby_cost : float;
  total_split_pods : int;
}

val evaluate_user : standby_depth:int -> Nest_traces.Trace.user -> outcome
(** [standby_depth] pooled endpoints are pinned per (VM, split pod),
    4 MiB of memory each; the pool is priced into
    [hostlo_standby_cost]. *)

val evaluate : Nest_traces.Trace.user list -> outcome list
(** {!evaluate_user} at standby depth 0 for each user. *)

val summarize : outcome list -> summary

val savings_histogram : outcome list -> bins:int -> (float * float * int) list
(** [(lo, hi, count)] over relative savings of the *saving* users —
    Fig. 9's frequency plot (bins over (0, max]). *)

val pp_summary : Format.formatter -> summary -> unit
