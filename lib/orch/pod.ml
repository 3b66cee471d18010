type container_spec = {
  cs_name : string;
  image : Nest_container.Image.t;
  cpu : float;
  mem : float;
}

type volume_decl = { vol_name : string; shared_fs : bool }

type t = {
  pod_name : string;
  containers : container_spec list;
  volumes : volume_decl list;
}

let make ~name ?(volumes = []) containers =
  { pod_name = name; containers; volumes }

let volume ~name ?(shared_fs = false) () = { vol_name = name; shared_fs }

let default_image = Nest_container.Image.make ~name:"alpine" ~size_mb:8

let container ~name ?(image = default_image) ?(cpu = 1.0) ?(mem = 1.0) () =
  { cs_name = name; image; cpu; mem }

let cpu_total t = List.fold_left (fun a c -> a +. c.cpu) 0.0 t.containers
let mem_total t = List.fold_left (fun a c -> a +. c.mem) 0.0 t.containers
