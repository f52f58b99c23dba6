(** Domain-based worker pool for per-prefix simulation.

    Converged-state computation is embarrassingly parallel across
    prefixes: {!Engine.simulate} only {e reads} the network, and each run
    owns its private state.  The pool fans a prefix list out over OCaml
    5 domains ([Domain] from the stdlib — no extra dependency) in
    contiguous chunks claimed from an atomic counter, and returns the
    results in input order, so a pool run is bit-identical to the
    sequential loop it replaces regardless of the job count.

    Faults are isolated per task: an exception raised by one input is
    captured in that input's own result slot, the other workers keep
    their completed work, and every failed input is retried once
    sequentially after all domains have joined (ruling out
    Domain-interaction effects) before the failure is reported.  When
    {!Faultinject} is enabled, every batch is transparently
    instrumented with it.

    Callers must not mutate the network while a pool call is in flight;
    the refiner's loop is therefore phased: parallel simulation of the
    iteration's dirty prefixes first, sequential policy mutation after
    (see DESIGN.md, "Parallel simulation"). *)

open Bgp

type task_error = {
  index : int;  (** position of the failing input in the batch *)
  exn : exn;  (** the exception of the {e last} (retry) attempt *)
  backtrace : string;  (** its raw backtrace, printed *)
}

val batch_active : unit -> bool
(** True while any {!map_result} batch (parallel phase or sequential
    retry) is in flight in this process.  The Analysis subsystem's
    mutation-discipline checker uses this to assert that nothing
    mutates a network while the pool may be reading it. *)

val pp_task_error : Format.formatter -> task_error -> unit

type slot_timing = {
  start_us : int;  (** slot start on the {!Obs.Trace.now_us} clock *)
  dur_us : int;  (** wall time of the {e recorded} attempt *)
  domain : int;  (** domain id that ran the recorded attempt *)
  retried : bool;  (** the recorded attempt is the sequential retry *)
}

val map_result :
  ?jobs:int ->
  ?on_recover:(int -> unit) ->
  ?on_slot:(int -> slot_timing -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, task_error) result list
(** Parallel, order-preserving, fault-isolating [List.map].  [jobs]
    defaults to {!Runtime.jobs}; with [jobs = 1] (or a short list) the
    input is mapped in the calling domain.  Workers claim
    [max 1 (n / (jobs * 8))] consecutive inputs per cursor fetch, which
    keeps the tail balanced when per-item cost varies.  A task that
    raises yields [Error] in its own slot without disturbing the rest
    of the batch; failed tasks are retried once sequentially after the
    parallel phase, and [on_recover i] is called for each input [i]
    whose retry succeeded.

    Every slot's wall time is measured — for a retried task the timing
    (and domain) of the retry attempt replaces the failed first
    attempt's, flagged [retried] — and reported after the batch via
    [on_slot], the [pool.slot_us] metrics histogram, and (when tracing
    is on) one trace event per slot plus a whole-batch [pool.map]
    event. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_result} for callers that treat any persistent failure as
    fatal: the first (lowest-index) input still failing after its
    retry has its index logged and its exception re-raised. *)

(** {2 Simulation batches with observability} *)

type stats = {
  jobs : int;  (** worker count of the batch (max when merged) *)
  prefixes : int;  (** prefixes simulated *)
  events : int;  (** total engine events across the batch *)
  non_converged : int;  (** states not {!Engine.Converged} *)
  diverged : int;  (** the {!Engine.Diverged} subset of those *)
  retried : int;  (** tasks recovered by the sequential retry *)
  failed : int;  (** tasks still failing after retry *)
  wall : float;  (** wall-clock seconds spent in the batch *)
}

val zero : stats

val merge : stats -> stats -> stats
(** Componentwise accumulation ([jobs] is the max, the rest sums). *)

val simulate_result :
  ?jobs:int ->
  sim:(Prefix.t -> 'a) ->
  run:('a -> Engine.outcome * int) ->
  Prefix.t list ->
  (Prefix.t * ('a, task_error) result) list * stats
(** [simulate_result ~sim ~run prefixes] runs [sim] on every prefix in
    parallel and returns the results paired with their prefixes, in
    input order, plus the batch statistics.  [run v] reads the
    {!Engine.outcome} and {!Engine.events} of the run behind [v], which
    [sim] takes inside a scoped run ({!Engine.with_cold}).  Per-prefix
    failures come back as [Error] slots (counted in [stats.failed])
    instead of raising, and retry recoveries are counted in
    [stats.retried].  Non-converged runs are counted in
    [stats.non_converged], so silent truncation shows up in every pool
    report. *)

val pp_stats : Format.formatter -> stats -> unit
