(** Model-against-data verification.

    Where {!Evaluation.Predict} aggregates match percentages, this module
    answers the engineer's question "which observed paths does my model
    get wrong, and where?"  Used by the CLI's [eval] command and by the
    test suite to assert exact reproduction. *)

open Bgp

type mismatch = {
  prefix : Prefix.t;
  path : Aspath.t;  (** the observed path that is not a RIB-Out match *)
  verdict : Matching.verdict;  (** how close the model gets *)
  blocking_as : Asn.t option;
      (** the AS closest to the origin where the path's suffix stops
          being selected — the place to look when debugging *)
}

type report = {
  checked : int;
  exact : int;
  unresolved : int;  (** {!Matching.Unresolved}: not a mismatch *)
  mismatches : mismatch list;  (** worst (No_rib_in) first *)
}

val verify :
  Asmodel.Qrmodel.t ->
  states:(Prefix.t, Simulator.Engine.state) Hashtbl.t ->
  Rib.t ->
  report
(** [of_walk] of {!Matching.walk}: is every distinct (prefix, observed
    path) a RIB-Out match?  [states] is only read. *)

val of_walk : Matching.walk -> report

val is_exact : report -> bool

val pp : Format.formatter -> report -> unit
(** Summary plus the first 20 mismatches. *)
