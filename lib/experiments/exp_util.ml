open Nestfusion
module Time = Nest_sim.Time
module Engine = Nest_sim.Engine
module Trace = Nest_sim.Trace
module Metrics = Nest_sim.Metrics

type durations = { warmup : Time.ns; measure : Time.ns }

let durations ~quick =
  if quick then { warmup = Time.ms 50; measure = Time.ms 250 }
  else { warmup = Time.ms 100; measure = Time.sec 1 }

(* A standby pool deeper than this is refused: every endpoint is a
   plugged TAP, and [chaos --quick --workload memcached --standby 1024]
   already takes about 12 s on a 2-core host. *)
let max_standby = 1024

let splits = [ (1, 1); (2, 1); (2, 2); (4, 2); (4, 4) ]

let clamp_split ~nodes (s, d) =
  let s = max 1 (min s nodes) in
  (s, max 1 (min d s))

(* On small scenarios several requested splits run the same way: keep
   the first of each. *)
let splits_for ~nodes =
  List.fold_left
    (fun acc sd ->
      let sd = clamp_split ~nodes sd in
      if List.mem sd acc then acc else sd :: acc)
    [] splits
  |> List.rev

let digests_agree ~title cells =
  let verdicts =
    List.concat_map
      (fun (cell, runs) ->
        let reference = snd (List.hd runs) in
        List.map
          (fun (run, dg) ->
            let same = String.equal dg reference in
            Printf.printf "%s %s  %s  %s\n" cell run dg
              (if same then "ok" else "MISMATCH");
            same)
          runs)
      cells
  in
  let ok = List.for_all Fun.id verdicts in
  Printf.printf "%s: %s\n" title (if ok then "bit-identical" else "MISMATCH");
  ok

module Obs = struct
  (* Presentation-layer switchboard for the CLI's --trace/--metrics
     flags.  The observability *data* lives on each run's engine (and
     dies with it); this module only remembers which engines the current
     process wants dumped, and forgets them on [dump]/[discard]. *)
  type cfg = {
    mutable trace : bool;
    mutable trace_capacity : int;
    mutable metrics : bool;
    mutable json : bool;
    mutable provenance : bool;
    mutable prov_sample : int;
    mutable timeline : bool;
    mutable timeline_period : Time.ns;
  }

  let cfg =
    { trace = false; trace_capacity = 8192; metrics = false; json = false;
      provenance = false; prov_sample = 1; timeline = false;
      timeline_period = Time.ms 1 }

  type attachment = {
    at_label : string;
    at_engine : Engine.t;
    at_timeline : Nest_sim.Timeline.t option;
  }

  (* Newest-first; reversed to attachment order wherever it is
     presented.  Prepending keeps [attach] O(1) — the old
     append-per-attach made a long experiment batch quadratic in the
     number of runs. *)
  let attached : attachment list ref = ref []
  let attached_mu = Mutex.create ()

  let locked f =
    Mutex.lock attached_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock attached_mu) f

  let configure ?trace ?trace_capacity ?metrics ?json ?provenance ?prov_sample
      ?timeline ?timeline_period () =
    Option.iter (fun v -> cfg.trace <- v) trace;
    Option.iter (fun v -> cfg.trace_capacity <- v) trace_capacity;
    Option.iter (fun v -> cfg.metrics <- v) metrics;
    Option.iter (fun v -> cfg.json <- v) json;
    Option.iter (fun v -> cfg.provenance <- v) provenance;
    Option.iter
      (fun v ->
        cfg.prov_sample <- max 1 v;
        Nest_sim.Provenance.set_sampling cfg.prov_sample)
      prov_sample;
    Option.iter (fun v -> cfg.timeline <- v) timeline;
    Option.iter (fun v -> cfg.timeline_period <- v) timeline_period

  let prov_sample () = cfg.prov_sample

  let enabled () = cfg.trace || cfg.metrics || cfg.provenance || cfg.timeline
  let provenance_on () = cfg.provenance

  let attach tb ~label =
    let engine = tb.Testbed.engine in
    if enabled () then begin
      if cfg.trace && Engine.tracer engine = None then
        Engine.set_tracer engine
          (Some (Trace.create ~capacity:cfg.trace_capacity ()));
      locked (fun () ->
          if not (List.exists (fun a -> a.at_engine == engine) !attached)
          then begin
            let at_timeline =
              if cfg.timeline then begin
                let tl =
                  Nest_sim.Timeline.create ~period:cfg.timeline_period engine
                    tb.Testbed.acct
                in
                Nest_sim.Timeline.start tl;
                Some tl
              end
              else None
            in
            attached :=
              { at_label = label; at_engine = engine; at_timeline }
              :: !attached
          end)
    end

  let discard () =
    locked (fun () ->
        List.iter
          (fun a -> Option.iter Nest_sim.Timeline.stop a.at_timeline)
          !attached;
        attached := [])

  let dump_text () =
    List.iter
      (fun { at_label = label; at_engine = engine; at_timeline } ->
        Printf.printf "\n--- observability: %s ---\n" label;
        if cfg.metrics then begin
          print_endline "metrics:";
          Format.printf "%a@?" Metrics.pp_text (Engine.metrics engine)
        end;
        (match at_timeline with
        | None -> ()
        | Some tl -> Format.printf "%a@?" Nest_sim.Timeline.pp tl);
        match Engine.tracer engine with
        | None -> ()
        | Some tr ->
          print_endline "trace events by name:";
          List.iter
            (fun (name, n) -> Printf.printf "  %-40s %d\n" name n)
            (Trace.by_name tr);
          Format.printf "%a@?" (Trace.pp_text ~limit:40) tr)
      (List.rev !attached)

  let dump_json () =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"runs\":[";
    List.iteri
      (fun i
           { at_label = label; at_engine = engine; at_timeline = _ } ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"label\":\"%s\"" (Trace.json_escape label));
        if cfg.metrics then
          Buffer.add_string b
            (",\"metrics\":" ^ Metrics.to_json (Engine.metrics engine));
        (match Engine.tracer engine with
        | None -> ()
        | Some tr -> Buffer.add_string b (",\"trace\":" ^ Trace.to_json tr));
        Buffer.add_char b '}')
      (List.rev !attached);
    Buffer.add_string b "]}";
    print_endline (Buffer.contents b)

  (* Everything attached so far as one Chrome trace: each run becomes a
     trace process carrying its engine spans/instants and, when timelines
     were sampled, per-entity CPU counter tracks. *)
  let export_chrome () =
    let ex = Nest_sim.Trace_export.create () in
    List.iter
      (fun a ->
        let pid = Nest_sim.Trace_export.process ex ~name:a.at_label in
        (match Engine.tracer a.at_engine with
        | Some tr -> Nest_sim.Trace_export.add_trace ex ~pid tr
        | None -> ());
        match a.at_timeline with
        | Some tl -> Nest_sim.Trace_export.add_timeline ex ~pid tl
        | None -> ())
      (List.rev !attached);
    ex

  let dump () =
    if !attached <> [] then begin
      if cfg.json then dump_json () else dump_text ()
    end;
    discard ()
end

module Par = struct
  let jobs = ref 1
  let set_jobs n = jobs := max 1 n

  (* Observability attachments are dumped in attachment order, and that
     order is what run scripts diff against — so an observed batch runs
     sequentially even when [jobs] allows fan-out.  Each cell is
     deterministic either way; parallelism only changes wall-clock. *)
  let effective_jobs () = if Obs.enabled () then 1 else !jobs

  let map f xs = Nest_sim.Domain_pool.map ~jobs:(effective_jobs ()) f xs
end

let deploy_single_sync ?(seed = 42L) ~mode ~port () =
  let tb = Testbed.create ~seed ~num_vms:1 () in
  Obs.attach tb ~label:("single:" ^ Modes.single_to_string mode);
  let site = ref None in
  Deploy.deploy_single tb ~mode ~name:"pod" ~entity:"server" ~port
    ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  match !site with
  | Some s ->
    if Obs.provenance_on () then begin
      Nest_net.Stack.set_provenance_all tb.Testbed.client_ns true;
      Nest_net.Stack.set_provenance_all s.Deploy.site_ns true
    end;
    (tb, s)
  | None ->
    failwith
      ("deploy_single_sync: deployment stuck in mode "
      ^ Modes.single_to_string mode)

let deploy_pair_sync ?(seed = 42L) ~mode ~port () =
  let tb = Testbed.create ~seed ~num_vms:2 () in
  Obs.attach tb ~label:("pair:" ^ Modes.pair_to_string mode);
  let site = ref None in
  Deploy.deploy_pair tb ~mode ~name:"pod" ~a_entity:"client-ctr"
    ~b_entity:"server-ctr" ~port ~k:(fun s -> site := Some s);
  Testbed.run_until tb (Time.sec 1);
  match !site with
  | Some s ->
    if Obs.provenance_on () then begin
      Nest_net.Stack.set_provenance_all s.Deploy.a_ns true;
      Nest_net.Stack.set_provenance_all s.Deploy.b_ns true
    end;
    (tb, s)
  | None ->
    failwith
      ("deploy_pair_sync: deployment stuck in mode " ^ Modes.pair_to_string mode)

let header title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

(* --- latency provenance probes -------------------------------------- *)

(* One timed UDP datagram per deployment mode, on a dedicated testbed:
   the per-hop latency-attribution comparison the `obs` subcommand
   prints, and the fixture the provenance tests assert against. *)
let probe_port = 7000

let provenance_probe_single ?seed ~mode () =
  let tb, site = deploy_single_sync ?seed ~mode ~port:probe_port () in
  let out = ref None in
  Path_probe.udp_timed_path ~src:tb.Testbed.client_ns ~dst:site.Deploy.site_ns
    ~dst_addr:site.Deploy.site_addr ~port:site.Deploy.site_port
    ~k:(fun e -> out := Some e)
    ();
  Testbed.run_until tb (Time.sec 3);
  match !out with
  | Some e -> e
  | None ->
    failwith
      ("provenance_probe_single: probe never delivered in mode "
      ^ Modes.single_to_string mode)

let provenance_probe_pair ?seed ~mode () =
  let tb, site = deploy_pair_sync ?seed ~mode ~port:probe_port () in
  let out = ref None in
  Path_probe.udp_timed_path ~src:site.Deploy.a_ns ~dst:site.Deploy.b_ns
    ~dst_addr:site.Deploy.b_addr ~port:site.Deploy.b_port
    ~k:(fun e -> out := Some e)
    ();
  Testbed.run_until tb (Time.sec 3);
  match !out with
  | Some e -> e
  | None ->
    failwith
      ("provenance_probe_pair: probe never delivered in mode "
      ^ Modes.pair_to_string mode)

let provenance_probes () =
  (* bind singles first: [@] evaluates right-to-left, and the probes
     should run (and export) in the order their tables print *)
  let singles =
    List.map
      (fun mode ->
        ( "single:" ^ Modes.single_to_string mode,
          provenance_probe_single ~mode () ))
      [ `Nat; `Brfusion ]
  in
  let pairs =
    List.map
      (fun mode ->
        ("pair:" ^ Modes.pair_to_string mode, provenance_probe_pair ~mode ()))
      [ `Hostlo; `Overlay ]
  in
  singles @ pairs

let print_attribution (label, entries) =
  let module P = Nest_sim.Provenance in
  header ("latency attribution: " ^ label);
  Printf.printf "  %-32s %12s %12s %12s\n" "hop" "queue(ns)" "service(ns)"
    "total(ns)";
  List.iter
    (fun e ->
      Printf.printf "  %-32s %12d %12d %12d\n" e.P.hop (P.queue_ns e)
        (P.service_ns e)
        (P.queue_ns e + P.service_ns e))
    entries;
  let q = List.fold_left (fun a e -> a + P.queue_ns e) 0 entries in
  let s = List.fold_left (fun a e -> a + P.service_ns e) 0 entries in
  Printf.printf "  %-32s %12d %12d %12d  (%d hops)\n" "TOTAL" q s (q + s)
    (List.length entries)

let row s = print_endline s
let kv k v = Printf.printf "  %-42s %s\n" k v
let pct a b = if b = 0.0 then 0.0 else 100.0 *. (a -. b) /. b
