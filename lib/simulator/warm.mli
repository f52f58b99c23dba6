(** The warm-start re-simulation policy and its counters.

    Refinement, churn replay, serve what-if queries and serve reloads
    all re-converge prefixes on a network that changed only slightly
    since their last converged state.  Every such re-convergence goes
    through {!simulate}: with warm starts on, a prefix whose network is
    structurally unchanged, or grown only by quasi-router
    duplications, resumes from its previous converged state and drains
    only the policy, origination and append deltas ({!Engine.simulate}
    with [from]) instead of re-flooding from the originators.  The mode is the [warm] field of {!Runtime} ([RD_WARM]
    or the [--warm] flags), read on every call.

    Modes ({!Runtime.Warm_mode}): [Off] always simulates cold; [On]
    resumes whenever the prior state is {!Engine.resumable} (falling
    back to cold otherwise); [Verify] runs warm {e and} cold side by
    side, compares the final states, counts and logs any divergence,
    and returns the cold result — the equivalence safety net CI runs. *)

open Bgp

val simulate :
  ?from:Engine.state ->
  Net.t ->
  prefix:Prefix.t ->
  originators:int list ->
  Engine.state
(** Simulate [prefix] under the {!Runtime.warm} mode, resuming from
    [from] (a previous state of the same prefix) where the mode and
    {!Engine.resumable} allow.  Safe to call from pool worker domains.
    Each call bumps [warm.resumed] for a resume and [warm.cold] for a
    cold run — a [Verify] pair counts one of each, plus one
    [warm.verified] and, when the pair's convergence differs or two
    converged states fail {!Engine.same_state}, one
    [warm.divergences]. *)

(** {2 Counters}

    The [warm.resumed], [warm.cold], [warm.verified] and
    [warm.divergences] counters of {!Obs.Metrics}.  They only go up;
    measure a run by the difference of two {!stats} readings. *)

type stats = {
  warm_runs : int;
  cold_runs : int;
  verified : int;
  divergences : int;
}

val stats : unit -> stats
(** The current values of the four registry counters. *)

val pp_stats : Format.formatter -> stats -> unit
