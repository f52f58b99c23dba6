(** Warm-start re-simulation counters.

    The refinement loop re-simulates every changed prefix each
    iteration; with warm starts on, a prefix whose network is
    structurally unchanged resumes from its previous converged state
    and drains only the policy deltas ({!Engine.simulate} with [from]) instead of
    re-flooding from the originators.  The mode is the [warm] field of
    {!Runtime} ([RD_WARM] or the [--warm] flags); this module only
    counts what the refiner and the churn replayer did with it.

    Modes ({!Runtime.Warm_mode}): [Off] always simulates cold; [On]
    resumes whenever a usable prior state exists (falling back to cold
    otherwise); [Verify] runs cold {e and} warm side by side, compares
    the final states, counts any divergence, and returns the cold
    result — the equivalence safety net CI runs. *)

(** {2 Counters}

    The [warm.resumed], [warm.cold], [warm.verified] and
    [warm.divergences] counters of {!Obs.Metrics}, incremented from
    pool worker domains.  They only go up (until {!Obs.Metrics.reset});
    measure a run by the difference of two {!stats} readings. *)

val note_warm : unit -> unit
(** A prefix was resumed from its prior state. *)

val note_cold : unit -> unit
(** A prefix was simulated from scratch (mode [Off], no usable prior
    state, or the cold half of a [Verify] pair). *)

val note_verified : unit -> unit
(** A cold/warm pair was compared. *)

val note_divergence : unit -> unit
(** A compared pair differed — a warm-start correctness violation. *)

type stats = {
  warm_runs : int;
  cold_runs : int;
  verified : int;
  divergences : int;
}

val stats : unit -> stats
(** The current values of the four registry counters. *)

val pp_stats : Format.formatter -> stats -> unit
