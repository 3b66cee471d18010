(** Stochastic container start-up phases (Fig. 8's subject).

    Start-up time is defined exactly as in §5.2.4: from ordering the
    engine to create the container until the containerized application
    sends its first message through a TCP socket.  We decompose it as

      runtime setup  +  network setup  +  application start

    The runtime and application phases are mode-independent samples; the
    network phase differs by mode:
    - [`Bridge_nat]: veth pair + bridge attach + iptables programming,
      whose cost grows with the number of rules already installed;
    - [`Brfusion]: the network phase is *measured live* from the QMP
      hot-plug performed by the CNI plugin, so this module only samples
      the two common phases for it. *)

type phases = {
  runtime_ns : Nest_sim.Time.ns;
  network_ns : Nest_sim.Time.ns;  (** 0 for [`Brfusion]: measured live. *)
  app_ns : Nest_sim.Time.ns;
}

val sample :
  Nest_sim.Prng.t ->
  network:[ `Bridge_nat of int  (** existing iptables rules *) | `Brfusion ] ->
  phases
