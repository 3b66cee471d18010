let plugin () =
  let add ~pod_name ~node ~publish ~k =
    let vm = Node.vm node in
    let netns = Nest_virt.Vm.new_netns vm ~name:pod_name () in
    Nest_container.Engine.nat_net_setup (Node.docker node) ~netns ~publish
      (fun () -> k netns)
  in
  { Cni.add }
