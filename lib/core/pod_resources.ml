type backend = Local | Virtfs
type shm_backend = Guest_local | Mempipe

module Volumes = struct
  type vol = { vol_backend : backend; mutable mounted_on : string list }
  type t = (string * string, vol) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let declare t ~pod ~volume backend =
    if Hashtbl.mem t (pod, volume) then
      failwith (Printf.sprintf "Volumes.declare: duplicate %s/%s" pod volume);
    Hashtbl.replace t (pod, volume) { vol_backend = backend; mounted_on = [] }

  let get t ~pod ~volume =
    match Hashtbl.find_opt t (pod, volume) with
    | Some v -> v
    | None ->
      failwith (Printf.sprintf "Volumes: unknown volume %s/%s" pod volume)

  let mount t ~pod ~volume ~vm =
    let v = get t ~pod ~volume in
    if not (List.mem vm v.mounted_on) then begin
      (match (v.vol_backend, v.mounted_on) with
      | Local, _ :: _ ->
        failwith
          (Printf.sprintf
             "Volumes.mount: %s/%s is Local-backed; mounting it into a \
              second OS would corrupt in-memory filesystem state — back it \
              with VirtFS"
             pod volume)
      | Local, [] | Virtfs, _ -> ());
      v.mounted_on <- v.mounted_on @ [ vm ]
    end

  let mounts t ~pod ~volume = (get t ~pod ~volume).mounted_on
end

module Shm = struct
  type seg = { seg_backend : shm_backend; mutable attached : string list }

  type t = (string * string, seg) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let register t ~pod ~segment backend =
    if Hashtbl.mem t (pod, segment) then
      failwith (Printf.sprintf "Shm.register: duplicate %s/%s" pod segment);
    Hashtbl.replace t (pod, segment)
      { seg_backend = backend; attached = [] }

  let get t ~pod ~segment =
    match Hashtbl.find_opt t (pod, segment) with
    | Some s -> s
    | None -> failwith (Printf.sprintf "Shm: unknown segment %s/%s" pod segment)

  let attach t ~pod ~segment ~vm =
    let s = get t ~pod ~segment in
    if not (List.mem vm s.attached) then begin
      (match (s.seg_backend, s.attached) with
      | Guest_local, existing :: _ when existing <> vm ->
        failwith
          (Printf.sprintf
             "Shm.attach: segment %s/%s is guest-local; cross-VM attachment \
              requires a MemPipe backend"
             pod segment)
      | (Guest_local | Mempipe), _ -> ());
      s.attached <- s.attached @ [ vm ]
    end
end
