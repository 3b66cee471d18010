type t = {
  add :
    pod_name:string ->
    node:Node.t ->
    publish:(int * int) list ->
    k:(Nest_net.Stack.ns -> unit) ->
    unit;
}
