(* End-to-end integration tests: generate → observe → prepare → split →
   refine → predict, plus dump-file and model-file round trips through
   the same pipeline a CLI user would run. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 4 }

let full_pipeline () =
  let _world, data = Core.generate ~conf () in
  let exp = Core.run_experiment ~seed:3 data in
  (* The paper's central claims, on a small world. *)
  check_bool "training reproduced exactly" true
    exp.Core.refinement.Refine.Refiner.converged;
  let max_len =
    List.fold_left
      (fun acc p -> max acc (Aspath.length p))
      1
      (Rib.all_paths exp.Core.prepared.Core.data)
  in
  check_bool "iterations within a small multiple of max path length" true
    (exp.Core.refinement.Refine.Refiner.iterations <= (6 * max_len) + 4);
  let pred = exp.Core.prediction in
  check_bool "predicts a majority of held-out paths down to tie-break" true
    (Evaluation.Predict.down_to_tie_break_fraction pred > 0.5);
  check_bool "rib-in bound above exact" true
    (Evaluation.Predict.rib_in_fraction pred
    >= Evaluation.Predict.exact_fraction pred)

let pipeline_through_files () =
  let dump = Filename.temp_file "pipeline" ".dump" in
  let model_file = Filename.temp_file "pipeline" ".model" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove dump;
      Sys.remove model_file)
    (fun () ->
      let _world, data = Core.generate ~conf () in
      Rib.save dump data;
      let loaded, stats, diagnostics = Rib.load dump in
      check_int "no diagnostics" 0 (List.length diagnostics);
      check_int "clean reload" 0
        (stats.Rib.dropped_loops + stats.Rib.dropped_empty);
      check_int "same size" (Rib.size data) (Rib.size loaded);
      let prepared = Core.prepare loaded in
      let result = Core.build prepared ~training:prepared.Core.data in
      Asmodel.Serialize.save model_file result.Refine.Refiner.model;
      match Asmodel.Serialize.load model_file with
      | Error e -> Alcotest.failf "model reload: %s" e
      | Ok model ->
          Alcotest.(check (list string))
            "saving the reloaded model reproduces the file"
            (Asmodel.Serialize.to_lines result.Refine.Refiner.model)
            (Asmodel.Serialize.to_lines model);
          (* The reloaded model reproduces the training data too. *)
          let states = Hashtbl.create 64 in
          let report = Evaluation.Predict.evaluate model ~states prepared.Core.data in
          check_bool "reloaded model RIB-Out-matches all training paths" true
            (Evaluation.Predict.exact_fraction report > 0.999))

let baselines_are_worse () =
  (* The headline comparison: the refined model beats both single-router
     baselines on the very data they are graded against. *)
  let _world, data = Core.generate ~conf () in
  let prepared = Core.prepare data in
  let shortest = Core.baseline_shortest_path prepared in
  let result = Core.build prepared ~training:prepared.Core.data in
  let states = result.Refine.Refiner.states in
  let refined =
    Evaluation.Predict.evaluate result.Refine.Refiner.model ~states
      prepared.Core.data
  in
  check_bool "refined beats shortest-path baseline" true
    (Evaluation.Predict.exact_fraction refined
    > Evaluation.Agreement.agree_fraction shortest)

let origin_split_pipeline () =
  let _world, data = Core.generate ~conf () in
  let exp = Core.run_experiment ~by_origin:true ~seed:3 data in
  check_bool "terminates" true (exp.Core.refinement.Refine.Refiner.iterations >= 1);
  (* Prediction for unseen prefixes works at all (paper 4.7). *)
  check_bool "some unseen-origin paths predicted" true
    (Evaluation.Predict.rib_in_fraction exp.Core.prediction > 0.3)

let deterministic_end_to_end () =
  let _w1, d1 = Core.generate ~conf () in
  let _w2, d2 = Core.generate ~conf () in
  check_bool "same data" true (Rib.entries d1 = Rib.entries d2);
  let e1 = Core.run_experiment ~seed:9 d1 in
  let e2 = Core.run_experiment ~seed:9 d2 in
  check_int "same iterations"
    e1.Core.refinement.Refine.Refiner.iterations
    e2.Core.refinement.Refine.Refiner.iterations;
  check_bool "same prediction" true
    (e1.Core.prediction.Evaluation.Predict.totals
    = e2.Core.prediction.Evaluation.Predict.totals)

let suite =
  [
    Alcotest.test_case "full pipeline" `Slow full_pipeline;
    Alcotest.test_case "pipeline through files" `Slow pipeline_through_files;
    Alcotest.test_case "baselines are worse" `Slow baselines_are_worse;
    Alcotest.test_case "origin split pipeline" `Slow origin_split_pipeline;
    Alcotest.test_case "deterministic end to end" `Slow deterministic_end_to_end;
  ]
