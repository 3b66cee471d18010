(** Container Network Interface: the plugin boundary through which the
    orchestrator provisions pod networking (§3.2/§4.2 package BrFusion
    and Hostlo as CNI plugins).

    A plugin's [add] builds the network namespace for a pod (or a pod
    fraction, for cross-VM plugins) on one node and hands it back once it
    is usable.  Plugins are closures over whatever infrastructure they
    need (VMM handle, host bridge, overlay network, Hostlo tap). *)

type t = {
  add :
    pod_name:string ->
    node:Node.t ->
    publish:(int * int) list ->
    k:(Nest_net.Stack.ns -> unit) ->
    unit;
}
