(** Table-2-style agreement between a model's predictions and observed
    AS-paths (paper §3.3).

    For every observed (prefix, path) the model's simulation is graded:
    either the observing AS selects the observed path ({e agree}), or
    the disagreement is attributed to the decision step that killed the
    observed route — or to the route never arriving ("AS-path not
    available").  The paper's rows map to: agree; not available; shorter
    AS-path exists ({!Simulator.Decision.Path_length}); lowest neighbor
    ID ({!Simulator.Decision.Lowest_ip}); we additionally report
    local-pref and MED eliminations, which the paper folds away. *)

open Bgp

type breakdown = {
  cases : int;  (** graded (prefix, observed path) cases *)
  agree : int;
  not_available : int;  (** no RIB-In anywhere in the observing AS *)
  unresolved : int;
      (** cases whose prefix has no converged simulation (truncated,
          diverged or failed): neither agreement nor disagreement *)
  by_step : (Simulator.Decision.step * int) list;
      (** eliminations per decision step, in step order *)
}

val simulate_and_grade : Asmodel.Qrmodel.t -> Rib.t -> breakdown
(** [of_walk] of a {!Refine.Matching.walk} with no cached states, so
    every prefix runs scoped.  Every entry of a prefix the model
    originates is a case; entries of other prefixes are skipped. *)

val of_walk : Asmodel.Qrmodel.t -> Refine.Matching.walk -> breakdown
(** Fold a walk of the model. *)

val agree_fraction : breakdown -> float

val pp : Format.formatter -> breakdown -> unit
(** The Table-2 column: percentages of agree / disagree rows. *)
