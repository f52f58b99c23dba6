(** Unified runtime configuration: one record for every process-wide
    knob — worker count, warm-start mode, mutation-discipline checking,
    fault injection, tracing, the serve port and query deadline — and
    one table ({!knobs}) that declares each knob once.

    A knob's entry holds its flags, its [RD_*] environment variable,
    its help text and its one parser.  The environment reader
    ({!of_env}), the argv reader ({!with_argv}) and the [asmodel] CLI
    flags are all derived from that table, so no other code parses a
    knob value or reads an [RD_*] variable.  This module is also the
    only API that sets or reads a knob; the modules that act on one
    ({!Pool}, {!Warm}, {!Faultinject}) read it from here.  The one
    exception is the check mode's setter, [Analysis.Ownership.set],
    which writes through {!set} and also installs the checker's
    hooks.

    Knob types live in submodules here (rather than in the modules that
    consume them) so that those consumers can depend on [Runtime]
    without a cycle. *)

(** Warm-start re-simulation mode (see {!Warm}). *)
module Warm_mode : sig
  type t = Off | On | Verify

  val parse : string -> (t, string) result
  (** Accepts [off]/[0]/[cold], [on]/[1]/[warm], [verify]/[check]. *)

  val to_string : t -> string
end

(** Checking mode (see [Analysis.Ownership]).  [On] runs the
    happens-before race detector of [Analysis.Race], fed by the
    {!Obs.Probe} instrumentation points, and audits the batch scope and
    warm-start bookkeeping of every {!Net} mutation. *)
module Check_mode : sig
  type t = Off | On

  val parse : string -> (t, string) result
  (** Accepts [off]/[0]/[false]/empty and [on]/[1]/[true]. *)

  val to_string : t -> string
end

(** Fault-injection configuration (see {!Faultinject}). *)
module Fault : sig
  type scope = Transient | Full

  type t = { rate : float; seed : int; scope : scope }

  val parse : string -> (t option, string) result
  (** [RATE:SEED] (transient), [RATE:SEED:full], or [0]/[off]/empty to
      disable ([Ok None]). *)

  val pp : Format.formatter -> t -> unit
end

type t = {
  jobs : int option;  (** pool worker count; [None] = machine default *)
  warm : Warm_mode.t;
  check : Check_mode.t;
  faults : Fault.t option;
  trace : Obs.Trace.mode;
  port : int option;
      (** serve: TCP port; [None] = Unix-domain socket (the default) *)
  deadline_ms : int;  (** serve: per-query deadline; [0] = no deadline *)
}

val default : t
(** No jobs override, warm [On], check [Off], no faults, trace [Off],
    no TCP port (Unix socket), 1000 ms query deadline. *)

(** {2 The knob table} *)

type knob = {
  flags : string list;
      (** as typed on a command line, long form first:
          [["--jobs"; "-j"]] *)
  env : string;  (** the environment variable, e.g. ["RD_JOBS"] *)
  docv : string;  (** the value's placeholder in help output *)
  doc : string;
      (** help text, in cmdliner's markup ([$(b,...)] for bold) *)
  parse : string -> t -> (t, string) result;
      (** [parse value rt] is [rt] with this knob's field set from
          [value]; every other field is left as it is. *)
}

val knobs : knob list
(** One entry per field of {!t}, in field order. *)

val knob : string -> knob option
(** The entry one of whose {!knob.flags} is the given flag. *)

val of_env : unit -> t
(** {!default} with every knob whose variable is set (trimmed; empty
    means unset) parsed on top.  An invalid value is logged as a
    warning and the default kept — an env typo must not change
    simulation behaviour silently.  Pure read: the ambient
    configuration ({!current}) is not touched. *)

val with_argv : t -> string list -> (t * string list, string) result
(** [with_argv t args] folds every knob flag of [args] into [t], in
    both [--flag value] and [--flag=value] form, and returns the
    leftover arguments in order.  Unlike {!of_env}, an invalid value is
    an [Error] — an explicit flag deserves a hard failure; in
    particular [--jobs 0] is rejected rather than clamped downstream. *)

(** {2 Ambient configuration}

    The process-wide configuration every knob accessor reads.  It is
    initialised from {!of_env} on first use; {!set} overrides it
    (change one field with [set { (current ()) with ... }]).  Setting
    it also propagates the trace mode to {!Obs.Trace}.  A [check] mode
    set here only takes effect at the next [Analysis.Ownership.ensure]
    (the refiner and the CLI's knob flags call it), since the analysis
    layer above owns the checker's hooks; [Analysis.Ownership.set]
    installs them at once. *)

val current : unit -> t

val set : t -> unit

(** {2 Resolved accessors} *)

val jobs : unit -> int
(** The configured job count, or [Domain.recommended_domain_count ()]
    when unset; always at least 1. *)

val warm : unit -> Warm_mode.t

val check : unit -> Check_mode.t

val faults : unit -> Fault.t option

val trace : unit -> Obs.Trace.mode
(** Reads {!Obs.Trace.mode} — the live tracer state — so a direct
    [Obs.Trace.set_mode] is also reflected here. *)

val port : unit -> int option
(** The serve front-end's TCP port; [None] means Unix-domain socket. *)

val deadline_ms : unit -> int
(** The serve layer's per-query deadline in milliseconds; [0] disables
    deadline enforcement. *)

val pp : Format.formatter -> t -> unit
