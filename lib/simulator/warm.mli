(** The warm-start re-simulation policy, its counters, and {!converge},
    the one batch entry point.

    Refinement, churn replay, serve what-if queries and serve reloads
    all re-converge prefixes on a network that changed
    only slightly since their last converged state.  Every such
    re-convergence is a {!converge} batch: with warm starts on, a
    prefix whose network is structurally unchanged, or grown only by
    quasi-router duplications, resumes from its previous converged
    state and drains only the policy, origination and append deltas
    ({!Engine.simulate} with [from]) instead of re-flooding from the
    originators.  The mode is the [warm] field of {!Runtime} ([RD_WARM]
    or the [--warm] flags), read on every run.

    Modes ({!Runtime.Warm_mode}): [Off] always simulates cold; [On]
    resumes whenever the prior state is {!Engine.resumable} (falling
    back to cold otherwise); [Verify] runs warm {e and} cold side by
    side, compares the final states, counts and logs any divergence,
    and returns the cold result — the equivalence safety net CI runs.

    Quarantine: a prefix is quarantined exactly when it holds no
    converged state in its caller's {!table} (its last run did not
    converge, or raised).  Callers put the quarantined prefixes they
    track into every batch; those run cold, because a non-converged
    state is not {!Engine.resumable}, and leave quarantine the moment a
    run converges. *)

open Bgp

(** {2 Batches} *)

type table = (Prefix.t, Engine.state) Hashtbl.t
(** Each prefix's latest state, converged or not; none after a failed
    run. *)

val quarantined : table -> Prefix.t -> bool
(** No entry, or a truncated or diverged one. *)

type batch = {
  results : (Prefix.t * (Engine.state, Pool.task_error) result) list;
      (** per prefix, in input order *)
  pool : Pool.stats;
  resumed : int;
      (** prefixes that resumed from their table state; the other
          [pool.prefixes - resumed] ran cold *)
  divergences : int;  (** [Verify] pairs of this batch that diverged *)
}

val converge :
  table -> Net.t -> originators:(Prefix.t -> int list) -> Prefix.t list -> batch
(** Re-converge the distinct [prefixes] over the {!Pool}
    ({!Runtime.jobs} workers), each resuming from its [table] state
    where the mode allows; [originators] runs in the worker domains.
    Every run bumps [warm.resumed] or [warm.cold] — a [Verify] pair one
    of each, plus one [warm.verified] and, when the pair's convergence
    differs or two converged states fail {!Engine.same_state}, one
    [warm.divergences].  Then store every new state in [table], remove
    the entry of each prefix still failing after the pool's retry (an
    [Error] result, never raised), and drain the touched set
    ({!Net.clear_touched}) of every prefix run.  The network must not
    change during the call. *)

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
