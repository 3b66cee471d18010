(** The VMM's side-channel management interface (QEMU's QMP socket, §3.2).

    Commands are typed rather than JSON, but keep QMP's shape: netdev
    (backend) creation, device (frontend) plug/unplug, and the Hostlo
    extension that creates a multiplexed loopback tap.  Each command costs
    one management round-trip, sampled from the cost model. *)

type command =
  | Netdev_add of { id : string; bridge : string }
      (** Create a tap backend enslaved to the named host bridge. *)
  | Netdev_add_hostlo of { id : string; hostlo : string }
      (** Take a queue of the named Hostlo loopback tap as backend. *)
  | Device_add of { id : string; netdev : string }
      (** Plug a virtio-net frontend bound to the named backend. *)
  | Device_del of { id : string }

type response =
  | Ok_done
  | Ok_nic of { mac : Nest_net.Mac.t }
      (** Device_add returns the MAC the orchestrator forwards to its VM
          agent (§3.1 step 3). *)
  | Error of string

val command_name : command -> string

val idempotency_key : command -> string
(** ["<command_name>:<id>"].  The id names the logical operation —
    orchestrator retries re-issue the same id, distinct operations use
    fresh ones — so the key identifies exactly one intended state change.
    {!Vmm.execute} journals the reply of every applied command under this
    key and answers a retried command from the journal instead of
    re-applying it (exactly-once hot-plug: a lost ack no longer means a
    duplicated device). *)
