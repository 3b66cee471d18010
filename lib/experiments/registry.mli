(** Experiment registry: every table and figure of the paper's
    evaluation, addressable by id. *)

type entry = {
  id : string;           (** e.g. "fig4", "table2". *)
  description : string;
  run : quick:bool -> unit;
}

val all : entry list
(** In paper order: fig2, table1, fig4, fig5, fig6, fig7, fig8, table2,
    fig9, fig10, fig11, fig12, fig13, fig14, fig15. *)

val ablations : entry list
(** Ablation benches (not part of the paper's evaluation): guest-kernel
    factor, iptables chain length, Hostlo fan-out, packing policy. *)

val find : string -> entry option
(** Searches both [all] and [ablations]. *)

val run_all : ?jobs:int -> quick:bool -> unit -> unit
(** Runs every entry of [all] in paper order.  [jobs] (default 1) sets
    the {!Exp_util.Par} fan-out width: experiments still print in order,
    but each fans its independent cells (one testbed + workload apiece)
    across that many domains.  Results are identical for any [jobs]. *)
