(** Happens-before instrumentation hook (the [RD_CHECK=on] probes).

    The layers that own shared mutable state publish two kinds of
    events here: {e accesses} to a named shared object and
    {e synchronization edges} as release/acquire pairs on a named
    channel (a Pool worker spawn or join, a Snapshot writer
    section).  A happens-before checker — [Analysis.Race] — installs
    the process-wide hook and reconstructs the ordering; with no hook
    installed every probe costs one atomic load and a branch, so the
    probes stay in production code paths.

    Object and channel names are plain strings chosen by the
    publishing layer (e.g. ["net#3/structure"], ["pool.17.0.spawn"]).
    Two accesses race when they touch the same object string, at least
    one is a {!Write}, they come from different domains and neither
    happens-before the other under the published edges.

    This module only dispatches; it never blocks and holds no state
    beyond the hook itself. *)

type kind = Read | Write

type hook = {
  h_access : string -> string -> kind -> unit;
      (** [h_access obj site kind]: the current domain touched [obj]
          at source location / rule [site]. *)
  h_release : string -> unit;
      (** The current domain publishes its history on a channel. *)
  h_acquire : string -> unit;
      (** The current domain adopts a channel's published history. *)
}

val set_hook : hook option -> unit
(** Install (or remove, with [None]) the process-wide probe observer.
    The hook runs synchronously in the probing domain and must not
    itself probe. *)

val enabled : unit -> bool
(** One atomic load — guard any name formatting a probe site needs. *)

val access : obj:string -> site:string -> kind -> unit

val read : obj:string -> site:string -> unit

val write : obj:string -> site:string -> unit

val release : chan:string -> unit

val acquire : chan:string -> unit
