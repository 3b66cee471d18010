type container_req = { c_cpu : float; c_mem : float }
type pod = { p_id : int; p_containers : container_req list }
type user = { u_id : int; pods : pod list }

let pod_cpu p = List.fold_left (fun a c -> a +. c.c_cpu) 0.0 p.p_containers
let pod_mem p = List.fold_left (fun a c -> a +. c.c_mem) 0.0 p.p_containers
let user_pods u = List.length u.pods

let user_containers u =
  List.fold_left (fun a p -> a + List.length p.p_containers) 0 u.pods

let output_csv oc users =
  output_string oc "user,pod,container,cpu,mem\n";
  List.iter
    (fun u ->
      List.iter
        (fun p ->
          List.iteri
            (fun i c ->
              Printf.fprintf oc "%d,%d,%d,%.6f,%.6f\n" u.u_id p.p_id i
                c.c_cpu c.c_mem)
            p.p_containers)
        u.pods)
    users

let input_csv ic =
  (* Group by user, then pod, preserving order of first appearance. *)
  let users = Hashtbl.create 64 in
  let order = ref [] in
  let add u p c =
    let pods =
      match Hashtbl.find_opt users u with
      | Some pods -> pods
      | None ->
        let pods = Hashtbl.create 16 in
        Hashtbl.add users u pods;
        order := u :: !order;
        pods
    in
    let cs = Option.value (Hashtbl.find_opt pods p) ~default:[] in
    Hashtbl.replace pods p (c :: cs)
  in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line <> "user,pod,container,cpu,mem" then
         let bad () = failwith ("Trace.input_csv: bad row: " ^ line) in
         match String.split_on_char ',' line with
         | [ u; p; _; cpu; mem ] -> (
           match
             ( int_of_string u, int_of_string p,
               { c_cpu = float_of_string cpu; c_mem = float_of_string mem } )
           with
           | u, p, c -> add u p c
           | exception Failure _ -> bad ())
         | _ -> bad ()
     done
   with End_of_file -> ());
  List.rev_map
    (fun u ->
      let pods = Hashtbl.find users u in
      let pod_ids =
        Hashtbl.fold (fun p _ acc -> p :: acc) pods [] |> List.sort compare
      in
      { u_id = u;
        pods =
          List.map
            (fun p ->
              { p_id = p; p_containers = List.rev (Hashtbl.find pods p) })
            pod_ids })
    !order
