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
  by_step : (Simulator.Decision.step * int) list;
      (** eliminations per decision step, in step order *)
}

val simulate_and_grade :
  ?on_prefix:(int -> int -> unit) -> Asmodel.Qrmodel.t -> Rib.t -> breakdown
(** Simulate every prefix of the data set that the model originates
    and grade its entries inside the prefix's scoped run
    ({!Simulator.Engine.with_cold}); entries of other prefixes are
    skipped.  [on_prefix done_count total] reports progress, in prefix
    order. *)

val agree_fraction : breakdown -> float

val pp : Format.formatter -> breakdown -> unit
(** The Table-2 column: percentages of agree / disagree rows. *)
