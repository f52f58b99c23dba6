(** Deterministic fault injection for the simulation pipeline.

    Production routing software treats per-flow failures as data, not as
    process death; proving that this pipeline does the same needs a way
    to {e cause} failures on demand, repeatably.  This module decides —
    from a seed and a rate, never from wall-clock state — which pool
    task indices throw and which prefixes get their engine event budget
    shrunk, so that a faulted run is reproducible bit for bit and a run
    with faults disabled is exactly the un-instrumented pipeline.

    The configuration is the [faults] field of {!Runtime} (a
    {!Runtime.Fault.t}: the [RD_FAULTS] environment variable, the
    CLI/bench [--faults] flag, or {!Runtime.set}); every hook
    below reads it and is the identity when it is [None] (the default).
    Knob syntax: [RATE:SEED] for transient scope, [RATE:SEED:full] for
    full scope, [0], [off] or the empty string to disable.  Example:
    [RD_FAULTS=0.05:42].

    Two injection scopes exist:

    - [Transient]: chosen task indices throw {!Injected} on their first
      attempt only; the pool's sequential retry then succeeds, so the
      final results are {e provably identical} to an un-faulted run
      while the recovery machinery is exercised.  This is the scope the
      [RD_FAULTS] environment knob enables, safe to leave on under a
      full test suite (CI does).
    - [Full]: additionally, a smaller set of task indices fails on the
      retry as well (permanent task loss), and chosen prefixes have
      their engine budget shrunk to force [Truncated] outcomes — the
      quarantine paths downstream.  Results differ from the clean run by
      design; the bench [FAULT] section and dedicated tests use this. *)

exception Injected of int
(** Raised by wrapped tasks; the payload is the input index. *)

val wrap_tasks : n:int -> ('a -> 'b) -> int -> 'a -> 'b
(** [wrap_tasks ~n f] instruments a pool task function for a batch of
    [n] inputs under the ambient configuration: chosen indices raise
    {!Injected} on their first call (and, for a [rate/4] sub-population
    in [Full] scope, on every call).  With faults disabled this is
    [fun _ x -> f x].  The returned closure owns per-batch first-attempt
    state: build one per batch, and apply it to a given index from one
    domain at a time (the pool's disjoint slots guarantee this). *)

val shrink_budget : key:int -> int -> int
(** [shrink_budget ~key budget] is [1] when [key] (a deterministic
    hash, e.g. of the prefix) is chosen under [Full] scope — small
    enough that the engine's escalation (x2, x4) still truncates any
    real workload — and [budget] otherwise. *)
