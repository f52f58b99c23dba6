(** End-to-end pipelines for the AS-routing-model methodology.

    This is the library facade a downstream user starts from:

    {ol
    {- obtain table dumps — from real collectors via {!Bgp.Mrt}, or from
       the synthetic world ({!generate});}
    {- {!prepare} them the way the paper does (§3.1, §4.1): collapse to
       one prefix per origin AS, remove single-homed stub ASes, extract
       the AS graph and hierarchy;}
    {- {!split} into training and validation;}
    {- {!build} the refined quasi-router model from the training set;}
    {- {!evaluate} predictions on the validation set.}}

    {!run_experiment} chains 2-5. *)

open Bgp

val generate : ?conf:Netgen.Conf.t -> unit -> Netgen.Groundtruth.world * Rib.t
(** Build the synthetic ground-truth world and observe its RIB dumps
    (see DESIGN.md §2 for why this substitutes the paper's collector
    feeds). *)

type prepared = {
  data : Rib.t;  (** collapsed to one prefix per AS, stubs transferred *)
  graph : Topology.Asgraph.t;  (** the reduced ("core") AS graph *)
  full_graph : Topology.Asgraph.t;  (** before stub removal *)
  removed_stubs : Asn.Set.t;
  classification : Topology.Extract.classification;
  levels : Topology.Hierarchy.levels;  (** tier-1 clique etc. (§3.1) *)
}

val prepare : Rib.t -> prepared

val split :
  ?by_origin:bool -> ?train_fraction:float -> seed:int -> prepared ->
  Evaluation.Split.t
(** Training/validation split of the prepared data (§4.2): by
    observation points (default) or by originating ASes. *)

val build :
  ?options:Refine.Refiner.options ->
  ?on_iteration:(Refine.Refiner.iter_stat -> unit) ->
  prepared ->
  training:Rib.t ->
  Refine.Refiner.result
(** Initial model on the core graph, refined against the training set;
    [on_iteration] is the refiner's progress hook. *)

val evaluate :
  Refine.Refiner.result -> validation:Rib.t -> Evaluation.Predict.report
(** Grade the refined model's predictions on held-out data, reusing the
    refiner's final simulation states. *)

type experiment = {
  prepared : prepared;
  splits : Evaluation.Split.t;
  refinement : Refine.Refiner.result;
  prediction : Evaluation.Predict.report;
}

val run_experiment :
  ?options:Refine.Refiner.options ->
  ?on_iteration:(Refine.Refiner.iter_stat -> unit) ->
  ?by_origin:bool ->
  ?train_fraction:float ->
  ?seed:int ->
  Rib.t ->
  experiment
(** The full §4/§5 pipeline on a cleaned data set; [seed] (default 7)
    drives the split. *)

val baseline_shortest_path : prepared -> Evaluation.Agreement.breakdown
(** Table 2, column "Shortest Path": one router per AS, no policies. *)

val baseline_policies : prepared -> Evaluation.Agreement.breakdown
(** Table 2, column "Customer/Peering Policies": one router per AS with
    inferred-relationship policies (§3.3). *)

val infer_relationships : prepared -> Topology.Relationships.t
(** Valley-free inference on the full graph, seeded with the inferred
    tier-1 clique. *)
