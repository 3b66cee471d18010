type command =
  | Netdev_add of { id : string; bridge : string }
  | Netdev_add_hostlo of { id : string; hostlo : string }
  | Device_add of { id : string; netdev : string }
  | Device_del of { id : string }

type response =
  | Ok_done
  | Ok_nic of { mac : Nest_net.Mac.t }
  | Error of string

let command_name = function
  | Netdev_add _ -> "netdev_add"
  | Netdev_add_hostlo _ -> "netdev_add_hostlo"
  | Device_add _ -> "device_add"
  | Device_del _ -> "device_del"

(* The id names the logical operation: an orchestrator retry re-issues
   the command with the same id, a distinct operation uses a fresh one
   (QEMU itself enforces this by refusing duplicate ids).  Command name +
   id is therefore a usable idempotency key: the VMM's reply journal
   dedupes re-applies under it, turning "timeout" into "applied but ack
   lost" instead of "unknown". *)
let idempotency_key = function
  | Netdev_add { id; _ } -> "netdev_add:" ^ id
  | Netdev_add_hostlo { id; _ } -> "netdev_add_hostlo:" ^ id
  | Device_add { id; _ } -> "device_add:" ^ id
  | Device_del { id } -> "device_del:" ^ id
