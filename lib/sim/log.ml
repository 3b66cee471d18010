let sources : (string, Logs.src) Hashtbl.t = Hashtbl.create 16

(* The source table is process-global and subsystem modules ask for
   their source lazily, which with a parallel harness can happen on any
   domain. *)
let sources_mu = Mutex.create ()

let locked f =
  Mutex.lock sources_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock sources_mu) f

let src name =
  let full = "nest." ^ name in
  locked (fun () ->
      match Hashtbl.find_opt sources full with
      | Some s -> s
      | None ->
        let s = Logs.Src.create full ~doc:("nest subsystem " ^ name) in
        Logs.Src.set_level s None;
        Hashtbl.add sources full s;
        s)

let reporter_installed = ref false

let enable () =
  locked (fun () ->
      if not !reporter_installed then begin
        Logs.set_reporter (Logs.format_reporter ());
        reporter_installed := true
      end;
      Hashtbl.iter
        (fun _ s -> Logs.Src.set_level s (Some Logs.Debug))
        sources);
  (* Sources created after [enable] inherit via the global level too. *)
  Logs.set_level ~all:false (Some Logs.Debug)

let disable () =
  locked (fun () ->
      Hashtbl.iter (fun _ s -> Logs.Src.set_level s None) sources)

let stamp engine =
  match engine with
  | None -> ""
  | Some e -> Format.asprintf "[%a] " Time.pp (Engine.now e)

let msg level ?engine src thunk =
  Logs.msg ~src level (fun m -> m "%s%s" (stamp engine) (thunk ()))

let debug ?engine src thunk = msg Logs.Debug ?engine src thunk
let info ?engine src thunk = msg Logs.Info ?engine src thunk
