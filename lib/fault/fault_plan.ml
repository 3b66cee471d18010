(* Declarative fault schedules.

   A plan is pure data: which management-plane fault rates apply, and
   which discrete fault events fire at which virtual times.  Binding a
   plan to a live testbed — installing hooks, scheduling events, drawing
   random decisions — is [Injector]'s job.  Keeping the description
   separate from the machinery is what makes chaos runs reproducible:
   the same (plan, engine seed) pair always produces the same fault
   timeline, bit-identical under [--jobs N], because every random choice
   is drawn from the plan's own [Prng] stream in engine-event order. *)

module Time = Nest_sim.Time

type qmp_rule = {
  fail_prob : float;      (* P(command answered with Error) *)
  timeout_prob : float;   (* P(command lost, times out), after fail roll *)
  partial_prob : float;   (* P(command APPLIED but ack lost), after both *)
  timeout_ns : Time.ns;   (* how long a timed-out caller waits *)
}

let qmp_rule ?(fail_prob = 0.0) ?(timeout_prob = 0.0) ?(partial_prob = 0.0)
    ?(timeout_ns = Time.ms 500) () =
  { fail_prob; timeout_prob; partial_prob; timeout_ns }

type event =
  | Vm_crash of { at : Time.ns; vm : string; restart_after : Time.ns option }
      (* QEMU process death; optionally supervised restart *)
  | Link_down of { at : Time.ns; vm : string; duration : Time.ns }
      (* administrative down on every NIC of the VM's root namespace *)
  | Link_flap of {
      at : Time.ns;
      vm : string;
      down_ns : Time.ns;   (* time spent down per cycle *)
      up_ns : Time.ns;     (* time spent up between cycles *)
      cycles : int;
    }
  | Tap_exhaust of { at : Time.ns; tap : string; duration : Time.ns }
      (* full vhost rings: the named tap drops everything for a while *)
  | Conntrack_clamp of {
      at : Time.ns;
      scope : [ `Host | `Vm of string ];
      capacity : int;
      duration : Time.ns;
    }
      (* nf_conntrack table clamped: new flows are dropped when full *)
  | Corrupt_burst of {
      at : Time.ns;
      vm : string;
      prob : float;        (* per-frame corruption probability *)
      duration : Time.ns;
    }
      (* receive-side FCS failures beyond what Netem's loss models *)

type t = {
  seed : int64;            (* seeds the injector's private Prng stream *)
  qmp : qmp_rule option;
  events : event list;
}

let empty = { seed = 0L; qmp = None; events = [] }

let make ?(seed = 1L) ?qmp ?(events = []) () = { seed; qmp; events }

let is_empty t = t.qmp = None && t.events = []

let event_at = function
  | Vm_crash { at; _ }
  | Link_down { at; _ }
  | Link_flap { at; _ }
  | Tap_exhaust { at; _ }
  | Conntrack_clamp { at; _ }
  | Corrupt_burst { at; _ } -> at

let pp_event fmt e =
  match e with
  | Vm_crash { at; vm; restart_after } ->
    Format.fprintf fmt "%a vm_crash %s%s" Time.pp at vm
      (match restart_after with
      | None -> ""
      | Some r -> Format.asprintf " (restart +%a)" Time.pp r)
  | Link_down { at; vm; duration } ->
    Format.fprintf fmt "%a link_down %s for %a" Time.pp at vm Time.pp duration
  | Link_flap { at; vm; down_ns; up_ns; cycles } ->
    Format.fprintf fmt "%a link_flap %s %dx(down %a, up %a)" Time.pp at vm
      cycles Time.pp down_ns Time.pp up_ns
  | Tap_exhaust { at; tap; duration } ->
    Format.fprintf fmt "%a tap_exhaust %s for %a" Time.pp at tap Time.pp
      duration
  | Conntrack_clamp { at; scope; capacity; duration } ->
    Format.fprintf fmt "%a conntrack_clamp %s cap=%d for %a" Time.pp at
      (match scope with `Host -> "host" | `Vm v -> v)
      capacity Time.pp duration
  | Corrupt_burst { at; vm; prob; duration } ->
    Format.fprintf fmt "%a corrupt_burst %s p=%.3f for %a" Time.pp at vm prob
      Time.pp duration

let pp fmt t =
  Format.fprintf fmt "fault plan (seed %Ld):@." t.seed;
  (match t.qmp with
  | None -> ()
  | Some q ->
    Format.fprintf fmt "  qmp: fail=%.3f timeout=%.3f partial=%.3f (%a)@."
      q.fail_prob q.timeout_prob q.partial_prob Time.pp q.timeout_ns);
  List.iter (fun e -> Format.fprintf fmt "  %a@." pp_event e) t.events
