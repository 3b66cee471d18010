(** Logging for the simulator, on the [logs] library.

    Each subsystem owns a source ("nest.stack", "nest.qmp", ...); all are
    silent unless enabled.  Messages are prefixed with the *simulated*
    time of the owning engine when one is supplied, which is what makes
    traces readable — wall-clock timestamps are meaningless inside a
    discrete-event run. *)

val src : string -> Logs.src
(** Creates (or reuses) a source named ["nest.<name>"]. *)

val enable : unit -> unit
(** Installs a stderr reporter and turns every nest source up to
    [Debug].  Idempotent. *)

val disable : unit -> unit
(** Silences all nest sources (the reporter stays installed). *)

val debug : ?engine:Engine.t -> Logs.src -> (unit -> string) -> unit
(** The thunk is only evaluated when the source is enabled. *)

val info : ?engine:Engine.t -> Logs.src -> (unit -> string) -> unit
