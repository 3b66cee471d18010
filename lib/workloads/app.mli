(** Shared plumbing for benchmark applications. *)

open Nest_net
open Nestfusion

type endpoints = {
  cl_ns : Stack.ns;
  cl_exec : Nest_sim.Exec.t;  (** Client application context. *)
  sv_ns : Stack.ns;
  sv_exec : Nest_sim.Exec.t;  (** Server application context. *)
  sv_addr : Ipv4.t;
  sv_port : int;
  cl_new_exec : string -> Nest_sim.Exec.t;
  sv_new_exec : string -> Nest_sim.Exec.t;
}

val of_single : Testbed.t -> Deploy.server_site -> endpoints
(** Client on the physical host (the paper's §5.1 setup). *)

val of_pair : Deploy.pair_site -> endpoints
(** Both endpoints are containers of one pod. *)

val send_all : Stack.Tcp.conn -> size:int -> ?msg:Payload.app_msg -> unit -> unit
(** Send that must succeed (request/response traffic whose volume never
    fills the socket buffer); raises [Failure] on backpressure so protocol
    bugs surface instead of silently stalling. *)

(** A pool of worker contexts (multi-threaded server model): work is
    dispatched to the least-loaded worker. *)
module Pool : sig
  type t

  val create : (string -> Nest_sim.Exec.t) -> n:int -> name:string -> t
  val submit : t -> cost:int -> (unit -> unit) -> unit
end

(** CPU accounting snapshots for before/after measurement windows. *)
module Cpu_snap : sig
  type t

  val take : Nest_sim.Cpu_account.t -> t

  val diff_cores :
    before:t ->
    after:t ->
    entity:string ->
    Nest_sim.Cpu_account.category ->
    window:Nest_sim.Time.ns ->
    float

end
