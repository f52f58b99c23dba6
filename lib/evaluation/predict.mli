(** Prediction quality on held-out data (paper §4.2, §5).

    Grades every (prefix, observed path) of a validation set against a
    refined model: exact RIB-Out match, potential RIB-Out (lost only in
    the final tie-break), RIB-In (received but out-ranked earlier), or
    absent.  Also reports the paper's per-prefix coverage counters: for
    how many prefixes the model RIB-Out-matches at least 50% / 90% /
    100% of their distinct observed AS-paths. *)

open Bgp

type totals = {
  cases : int;
  rib_out : int;
  potential_rib_out : int;
  rib_in : int;
  no_rib_in : int;
  unresolved : int;
      (** cases whose prefix has no converged simulation — the engine
          returned {!Simulator.Engine.Truncated} or [Diverged], or the
          simulation failed even after the pool's retry.  An explicit
          "the model could not answer", never mixed into the mismatch
          buckets (and excluded from the RIB-In upper bound). *)
}

type coverage = {
  prefixes : int;  (** prefixes with at least one graded path *)
  at_least_half : int;
  at_least_90 : int;
  full : int;
}

type report = {
  totals : totals;
  coverage : coverage;
  pool : Simulator.Pool.stats;
      (** the batch of scoped runs (zero prefixes when everything was
          cached). *)
}

val evaluate :
  Asmodel.Qrmodel.t ->
  states:(Prefix.t, Simulator.Engine.state) Hashtbl.t ->
  Rib.t ->
  report
(** [of_walk] of {!Refine.Matching.walk}: [states] is only read, and a
    missing prefix runs scoped and is not memoized.  The report is
    identical for every job count. *)

val of_walk : Refine.Matching.walk -> report
(** Every entry of a modelled prefix is a case. *)

val down_to_tie_break_fraction : report -> float
(** (RIB-Out + potential RIB-Out) / cases — the paper's ">80% of test
    cases match down to the final tie-break" headline metric. *)

val exact_fraction : report -> float

val rib_in_fraction : report -> float
(** (everything except {!totals.no_rib_in}) / cases — the upper bound on
    achievable prediction. *)

val pp : Format.formatter -> report -> unit
