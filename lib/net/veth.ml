let pair ~a_name ~a_mac ~b_name ~b_mac ~ab_hop ~ba_hop () =
  let a = Dev.create ~name:a_name ~mac:a_mac () in
  let b = Dev.create ~name:b_name ~mac:b_mac () in
  Hop.set_name ab_hop (a_name ^ "->" ^ b_name);
  Hop.set_name ba_hop (b_name ^ "->" ^ a_name);
  Dev.set_tx a (fun frame ->
      Hop.service_prov ?prov:(Frame.prov frame) ab_hop ~extra_ns:0
        ~bytes:(Frame.len frame) (fun () -> Dev.deliver b frame));
  Dev.set_tx b (fun frame ->
      Hop.service_prov ?prov:(Frame.prov frame) ba_hop ~extra_ns:0
        ~bytes:(Frame.len frame) (fun () -> Dev.deliver a frame));
  (a, b)
