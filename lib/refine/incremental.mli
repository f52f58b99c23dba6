(** Incremental model extension (paper §4.7).

    "Using the AS-routing model for predictions for other prefixes":
    once a model has been refined, newly observed prefixes can be added
    without retraining from scratch.  Because every policy the refiner
    installs is keyed by prefix, fitting a new prefix's observed paths
    only ever adds rules for that prefix — existing prefixes keep their
    exact matches (quasi-router additions can only widen, never narrow,
    what an AS propagates for other prefixes, since fresh quasi-routers
    replicate existing sessions). *)

open Bgp

type delta = { added : int; removed : int }
(** Signed rule churn: rules present after but not before ([added])
    and vice versa ([removed]) — both non-negative.  A raw count
    difference would conflate the two (and go negative when the
    refiner deletes more filters than it places). *)

type outcome = {
  result : Refiner.result;  (** refinement restricted to the new data *)
  new_quasi_routers : int;
  filters : delta;  (** per-prefix export deny rules *)
  med_rules : delta;  (** per-prefix import MED rules *)
}

val add_observations :
  ?options:Refiner.options ->
  Asmodel.Qrmodel.t ->
  Rib.t ->
  outcome
(** [add_observations model data] fits the model to the given (cleaned,
    collapsed) observations, which may concern prefixes the model never
    trained on, and reports what had to grow — and what was deleted.
    The model is extended in place. *)
