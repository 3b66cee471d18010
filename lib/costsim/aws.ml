type model = {
  model_name : string;
  vcpus : int;
  mem_gb : int;
  price_per_hour : float;
}

let models =
  [ { model_name = "large"; vcpus = 2; mem_gb = 8; price_per_hour = 0.112 };
    { model_name = "xlarge"; vcpus = 4; mem_gb = 16; price_per_hour = 0.224 };
    { model_name = "2xlarge"; vcpus = 8; mem_gb = 32; price_per_hour = 0.448 };
    { model_name = "4xlarge"; vcpus = 16; mem_gb = 64; price_per_hour = 0.896 };
    { model_name = "12xlarge"; vcpus = 48; mem_gb = 192; price_per_hour = 2.689 };
    { model_name = "24xlarge"; vcpus = 96; mem_gb = 384; price_per_hour = 5.376 } ]

let rel_cpu m = float_of_int m.vcpus /. 96.0
let rel_mem m = float_of_int m.mem_gb /. 384.0

let cheapest_fitting ~cpu ~mem =
  List.find_opt (fun m -> rel_cpu m >= cpu && rel_mem m >= mem) models

let pp_model fmt m =
  Format.fprintf fmt "m5.%s (%d vCPU, %d GB, $%.3f/h)" m.model_name m.vcpus
    m.mem_gb m.price_per_hour

let table2_rows =
  List.map
    (fun m ->
      (m.model_name, m.vcpus, m.mem_gb, rel_cpu m, rel_mem m, m.price_per_hour))
    models
