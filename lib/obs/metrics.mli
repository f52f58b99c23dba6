(** Process-wide metrics registry: atomic counters, gauges and
    fixed-bucket histograms, registered once by stable dotted name
    (e.g. ["engine.events_drained"]).

    Metrics are always on: every operation on a registered handle is a
    single [Atomic] read-modify-write, safe from any domain, so the hot
    layers update them unconditionally (at run/batch granularity — never
    per event).  Registration is idempotent: registering an existing
    name of the same kind returns the {e same} metric, so independent
    modules can share a series; re-registering under a different kind
    (or different histogram buckets) raises [Invalid_argument] — the
    name is the contract.

    {!snapshot} is the read side: the CLI ([asmodel build --metrics]),
    perfbench and the tests all consume the same listing. *)

type counter

type gauge

type histogram

val counter : string -> counter
(** Register (or fetch) the counter [name].  Counters only go up. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1, must be [>= 0]) to the counter. *)

val counter_value : counter -> int

val gauge : string -> gauge
(** Register (or fetch) the gauge [name].  Gauges are set to the latest
    observed level (quarantine size, unmatched count, ...). *)

val set_gauge : gauge -> int -> unit

val gauge_value : gauge -> int

val histogram : ?buckets:int list -> string -> histogram
(** Register (or fetch) the histogram [name].  [buckets] are inclusive
    upper bounds, strictly increasing; an implicit overflow bucket
    catches everything above the last bound.  Defaults to
    microsecond-scaled powers of four, 1us to about 17 minutes. *)

val observe : histogram -> int -> unit
(** Record one sample (negative samples clamp to 0). *)

val histogram_count : histogram -> int
(** Total samples observed. *)

val histogram_sum : histogram -> int
(** Sum of all observed samples. *)

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { buckets : (int * int) list; sum : int; count : int }
      (** [buckets] pairs each upper bound with its sample count; the
          overflow bucket carries bound [max_int]. *)

val snapshot : unit -> (string * value) list
(** Every registered metric with its current value, sorted by name. *)

val value : string -> value option
(** Current value of one metric, if registered. *)

val find_counter : string -> int
(** Convenience: the counter's value, or 0 when [name] is not a
    registered counter.  For tests and report glue. *)

val record_gc : unit -> unit
(** Refresh the [gc.*] gauges from [Gc.quick_stat]: [gc.minor_words],
    [gc.promoted_words], [gc.major_words] (allocation totals, in
    words), [gc.minor_collections], [gc.major_collections],
    [gc.compactions], [gc.heap_words] and [gc.top_heap_words].  Called
    by the bench harness and report paths at section boundaries so GC
    pressure lands in the same snapshot as the throughput counters;
    cheap ([Gc.quick_stat], no heap walk) but not per-event.  The
    totals are process-wide but count a domain's minor words only once
    its minor heap is collected, so they lag by up to a minor heap per
    domain: to count what one piece of code allocates, use
    {!allocated_words}. *)

val allocated_words : (unit -> 'a) -> 'a * int
(** [allocated_words f] runs [f] and returns its result with the words
    it allocated in the calling domain: every minor-heap word, whether
    or not a minor collection ran meanwhile, plus the words allocated
    directly in the major heap (large blocks), promotions excluded.
    Exact and deterministic — [fun () -> ()] reads 0 and
    [Array.make 240 0] reads 241 — so tests compare it with [=]. *)

val pp_snapshot : Format.formatter -> (string * value) list -> unit
