open Bgp

let generate ?(conf = Netgen.Conf.default) () =
  let world = Netgen.Groundtruth.build conf in
  let data = Netgen.Groundtruth.observe world in
  (world, data)

type prepared = {
  data : Rib.t;
  graph : Topology.Asgraph.t;
  full_graph : Topology.Asgraph.t;
  removed_stubs : Asn.Set.t;
  classification : Topology.Extract.classification;
  levels : Topology.Hierarchy.levels;
}

let prepare raw =
  let collapsed = Rib.collapse_to_origin raw in
  let classification = Topology.Extract.classify collapsed in
  let reduced = Topology.Extract.reduce collapsed in
  let levels = Topology.Hierarchy.classify classification.Topology.Extract.graph in
  {
    data = reduced.Topology.Extract.data;
    graph = reduced.Topology.Extract.core;
    full_graph = classification.Topology.Extract.graph;
    removed_stubs = reduced.Topology.Extract.removed;
    classification;
    levels;
  }

let split ?(by_origin = false) ?train_fraction ~seed prepared =
  if by_origin then
    Evaluation.Split.by_origin_ases ?train_fraction ~seed prepared.data
  else
    Evaluation.Split.by_observation_points ?train_fraction ~seed prepared.data

let build ?options ?on_iteration prepared ~training =
  let model = Asmodel.Qrmodel.initial prepared.graph in
  Refine.Refiner.refine ?options ?on_iteration model ~training

let evaluate (refinement : Refine.Refiner.result) ~validation =
  Evaluation.Predict.evaluate refinement.Refine.Refiner.model
    ~states:refinement.Refine.Refiner.states validation

type experiment = {
  prepared : prepared;
  splits : Evaluation.Split.t;
  refinement : Refine.Refiner.result;
  prediction : Evaluation.Predict.report;
}

let run_experiment ?options ?on_iteration ?(by_origin = false)
    ?train_fraction ?(seed = 7) data =
  let prepared = prepare data in
  let splits = split ~by_origin ?train_fraction ~seed prepared in
  let refinement =
    build ?options ?on_iteration prepared
      ~training:splits.Evaluation.Split.training
  in
  let prediction =
    evaluate refinement ~validation:splits.Evaluation.Split.validation
  in
  { prepared; splits; refinement; prediction }

let infer_relationships prepared =
  let paths = Rib.all_paths prepared.data in
  Topology.Relationships.infer
    ~level1:prepared.levels.Topology.Hierarchy.level1 prepared.full_graph
    paths

let baseline_shortest_path prepared =
  let model = Asmodel.Baseline.shortest_path prepared.graph in
  Evaluation.Agreement.simulate_and_grade model prepared.data

let baseline_policies prepared =
  let rels = infer_relationships prepared in
  let model = Asmodel.Baseline.with_policies prepared.graph rels in
  Evaluation.Agreement.simulate_and_grade model prepared.data
