(** Span-based tracing (the [RD_TRACE] knob).

    Spans mark wall-clock intervals of interesting work — an engine
    run, a pool slot, a refiner iteration — tagged with the recording
    domain id and free-form labels.  Three modes:

    - [Off] (default): recording is one atomic load and a branch; no
      event is allocated.
    - [Summary]: events are buffered and {!flush} prints a per-name
      aggregate table (count, total, mean, max).
    - [File path]: events are buffered and {!flush} writes them as
      Chrome trace-event JSON ([{"traceEvents": [...]}]) loadable by
      [chrome://tracing] / Perfetto; domain ids become [tid]s, so the
      pool's fan-out is visible as parallel tracks.

    The mode is process-wide and set by {!Simulator.Runtime} (which
    owns the [RD_TRACE] environment knob) or directly with
    {!set_mode}.  Event buffers are per-domain ([Domain.DLS], no locks
    on the record path) and registered globally, so {!flush} sees
    events from worker domains that have already terminated.  The
    buffer is bounded: {!flush} reports how many events the cap
    discarded, so a drop is never silent. *)

type mode = Off | Summary | File of string

val parse : string -> (mode, string) result
(** [off]/[0] and [summary] are keywords; anything else is a file path
    (by convention ending in [.json]). *)

val mode_to_string : mode -> string

val set_mode : mode -> unit

val mode : unit -> mode

val enabled : unit -> bool
(** True when recording ([Summary] or [File]); the hot-path gate. *)

val now_us : unit -> int
(** Microseconds since process start — the trace clock.  Also usable
    as a cheap wall-clock for callers that measure intervals whether or
    not tracing is on (the pool's slot timing). *)

type span

val begin_span : ?args:(string * string) list -> string -> span

val end_span : ?args:(string * string) list -> span -> unit
(** Close the span and record it (end-side [args] are appended to the
    begin-side ones).  A no-op when tracing was off at [begin_span]. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is recorded even when the
    thunk raises. *)

val emit :
  ?args:(string * string) list ->
  ?tid:int ->
  name:string ->
  ts_us:int ->
  dur_us:int ->
  unit ->
  unit
(** Record a pre-measured complete event — for callers that already
    time their work (pool slots).  [tid] defaults to the calling
    domain. *)

val instant : ?args:(string * string) list -> string -> unit
(** Record a zero-duration marker (budget escalation, divergence). *)

(** {2 Reading the buffer} *)

val event_count : unit -> int

type summary_row = {
  name : string;
  count : int;
  total_us : int;
  max_us : int;
}

val summary : unit -> summary_row list
(** Per-name aggregates of the buffered complete events, sorted by
    total time descending. *)

val write_file : string -> unit
(** Write the buffered events as Chrome trace-event JSON. *)

val flush : Format.formatter -> unit
(** Finish a run: in [Summary] mode print the aggregate table on
    [ppf]; in [File path] mode write the trace and print a one-line
    pointer; in [Off] mode do nothing.  The buffer is kept (callers
    may flush more than once). *)

val reset : unit -> unit
(** Drop all buffered events and the drop counter (mode unchanged). *)
