(* Public-interface audit.  Every [val] in lib/**/*.mli must have a caller
   outside its own module in lib/, bin/, examples/ or perfbench/, or sit
   on the allowlist with a reason.  An allowlist entry whose value gained
   such a caller, or is no longer declared, is stale and fails too, so the
   list can only shrink.  Reads the .cmt/.cmti files that `dune build
   @check` writes: a use is a [Texp_ident] whose declaration is the .mli's
   [val] (a module's own .ml never resolves to its .mli).

   Usage: api_audit.exe BUILD_DIR ALLOWLIST *)

open Typedtree

let rec cmt_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then cmt_files p
         else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then
           [ p ]
         else [])

let under dirs src = List.exists (fun d -> String.starts_with ~prefix:d src) dirs
let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* Nest_sim__Engine -> Nest_sim.Engine *)
let dotted m =
  let n = String.length m in
  let rec go i =
    if i + 1 >= n then m
    else if m.[i] = '_' && m.[i + 1] = '_' then
      String.sub m 0 i ^ "." ^ String.sub m (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

let () =
  let build, allowlist =
    match Sys.argv with
    | [| _; build; allowlist |] -> (build, allowlist)
    | _ -> prerr_endline "usage: api_audit.exe BUILD_DIR ALLOWLIST"; exit 2
  in
  let decls = ref [] and program = Hashtbl.create 1024 in
  let rec sig_items prefix =
    List.iter (fun it ->
        match it.sig_desc with
        | Tsig_value vd ->
            decls := (prefix ^ vd.val_name.txt, key vd.val_val.val_loc) :: !decls
        | Tsig_module
            { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
            sig_items (prefix ^ m ^ ".") s.sig_items
        | _ -> ())
  in
  let uses =
    let expr it e =
      (match e.exp_desc with
      | Texp_ident (_, _, vd) -> Hashtbl.replace program (key vd.val_loc) ()
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    { Tast_iterator.default_iterator with expr }
  in
  List.iter (fun f ->
      let cmt = Cmt_format.read_cmt f in
      match (cmt.cmt_sourcefile, cmt.cmt_annots) with
      | Some src, Interface s when under [ "lib/" ] src ->
          sig_items (dotted cmt.cmt_modname ^ ".") s.sig_items
      | Some src, Implementation s
        when under [ "lib/"; "bin/"; "examples/"; "perfbench/" ] src ->
          uses.structure uses s
      | _ -> ())
    (cmt_files build);
  let allowed = Hashtbl.create 128 and failures = ref 0 in
  let fail fmt = incr failures; Printf.printf (fmt ^^ "\n") in
  In_channel.with_open_text allowlist In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | _ when String.trim line = "" || line.[0] = '#' -> ()
         | Some i when String.trim (String.sub line i (String.length line - i)) <> "" ->
             Hashtbl.replace allowed (String.sub line 0 i) ()
         | _ -> fail "%s: allowlist entry without a reason" line);
  List.iter (fun (name, k) ->
      let called = Hashtbl.mem program k and listed = Hashtbl.mem allowed name in
      Hashtbl.remove allowed name;
      if called && listed then fail "%s: allowlisted, but the program calls it now" name
      else if not (called || listed) then fail "%s: no caller outside its module" name)
    (List.sort compare !decls);
  Hashtbl.fold (fun name () acc -> name :: acc) allowed []
  |> List.sort compare
  |> List.iter (fun name -> fail "%s: allowlisted, but no longer declared" name);
  Printf.printf "%d public values, %d failures\n" (List.length !decls) !failures;
  exit (if !failures = 0 then 0 else 1)
