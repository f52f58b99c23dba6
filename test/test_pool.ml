(* Tests for the Domain work pool: order preservation, jobs-count
   determinism of the refiner and the evaluator, and budget-truncation
   accounting. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Pool = Simulator.Pool
module Qrmodel = Asmodel.Qrmodel
module Refiner = Refine.Refiner

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let map_preserves_order () =
  let input = List.init 257 (fun i -> i) in
  let f x = (x * 7) - 3 in
  let expected = List.map f input in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "map at %d jobs = List.map" jobs)
        true
        (Pool.map ~jobs f input = expected))
    [ 1; 2; 4; 13 ];
  check_bool "empty list" true (Pool.map ~jobs:4 f [] = []);
  check_bool "more jobs than items" true
    (Pool.map ~jobs:16 f [ 1; 2; 3 ] = List.map f [ 1; 2; 3 ])

let map_propagates_exceptions () =
  let f x = if x = 42 then failwith "boom" else x in
  check_bool "raises" true
    (try
       ignore (Pool.map ~jobs:4 f (List.init 100 (fun i -> i)));
       false
     with Failure msg -> msg = "boom")

let stats_merge () =
  let a =
    { Pool.jobs = 4; prefixes = 3; events = 10; non_converged = 1;
      diverged = 1; retried = 2; failed = 1; wall = 0.5 }
  in
  let b =
    { Pool.jobs = 2; prefixes = 2; events = 7; non_converged = 0;
      diverged = 0; retried = 1; failed = 0; wall = 0.25 }
  in
  let m = Pool.merge a b in
  check_int "jobs is max" 4 m.Pool.jobs;
  check_int "prefixes sum" 5 m.Pool.prefixes;
  check_int "events sum" 17 m.Pool.events;
  check_int "non-converged sum" 1 m.Pool.non_converged;
  check_int "diverged sum" 1 m.Pool.diverged;
  check_int "retried sum" 3 m.Pool.retried;
  check_int "failed sum" 1 m.Pool.failed;
  check_bool "wall sums" true (abs_float (m.Pool.wall -. 0.75) < 1e-9)

(* A line network 1-2-3 whose far end originates each prefix; with a
   one-event budget every simulation is truncated. *)
let truncation_counted () =
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect net n1 n2);
  ignore (Net.connect net n2 n3);
  let prefixes = List.init 5 (fun i -> Asn.origin_prefix (10 + i)) in
  let sim prefix = Engine.simulate ~max_events:1 net ~prefix ~originators:[ n3 ] in
  let run st = (Engine.outcome st, Engine.events st) in
  let pairs, stats = Pool.simulate_result ~jobs:2 ~sim ~run prefixes in
  check_int "all prefixes simulated" 5 stats.Pool.prefixes;
  check_int "every state truncated" 5 stats.Pool.non_converged;
  check_bool "states flagged" true
    (List.for_all
       (function _, Ok st -> not (Engine.converged st) | _, Error _ -> false)
       pairs);
  check_bool "events accounted" true (stats.Pool.events >= 5);
  (* And with a generous budget nothing is truncated. *)
  let _, ok = Pool.simulate_result ~jobs:2 ~sim:(fun prefix ->
      Engine.simulate net ~prefix ~originators:[ n3 ]) ~run prefixes in
  check_int "no truncation" 0 ok.Pool.non_converged

(* Jobs-count determinism: the whole train-and-evaluate pipeline must
   produce identical results at jobs = 1 and jobs = 4.  Pool stats are
   compared except for [jobs] and the wall time. *)
let same_batch (a : Pool.stats) (b : Pool.stats) =
  a.Pool.prefixes = b.Pool.prefixes
  && a.Pool.events = b.Pool.events
  && a.Pool.non_converged = b.Pool.non_converged

let same_iter (a : Refiner.iter_stat) (b : Refiner.iter_stat) =
  a.Refiner.iteration = b.Refiner.iteration
  && a.Refiner.matched = b.Refiner.matched
  && a.Refiner.total = b.Refiner.total
  && a.Refiner.filters_added = b.Refiner.filters_added
  && a.Refiner.med_rules_added = b.Refiner.med_rules_added
  && a.Refiner.duplications = b.Refiner.duplications
  && a.Refiner.filter_deletions = b.Refiner.filter_deletions
  && a.Refiner.prefixes_changed = b.Refiner.prefixes_changed
  && same_batch a.Refiner.pool b.Refiner.pool

let jobs_determinism () =
  let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 23 } in
  let world = Netgen.Groundtruth.build conf in
  let data = Netgen.Groundtruth.observe world in
  let prepared = Core.prepare data in
  let splits = Core.split ~seed:5 prepared in
  let run jobs =
    let prior = Simulator.Runtime.current () in
    Simulator.Runtime.set { prior with jobs = Some jobs };
    Fun.protect ~finally:(fun () -> Simulator.Runtime.set prior) @@ fun () ->
    let result =
      Core.build prepared ~training:splits.Evaluation.Split.training
    in
    let report =
      Evaluation.Predict.evaluate result.Refiner.model
        ~states:(Hashtbl.create 64) splits.Evaluation.Split.validation
    in
    (result, report)
  in
  let r1, e1 = run 1 in
  let r4, e4 = run 4 in
  check_int "iterations equal" r1.Refiner.iterations r4.Refiner.iterations;
  check_int "matched equal" r1.Refiner.matched r4.Refiner.matched;
  check_int "total equal" r1.Refiner.total r4.Refiner.total;
  check_bool "converged equal" true (r1.Refiner.converged = r4.Refiner.converged);
  check_int "unstable equal" r1.Refiner.unstable_prefixes r4.Refiner.unstable_prefixes;
  check_bool "history identical" true
    (List.length r1.Refiner.history = List.length r4.Refiner.history
    && List.for_all2 same_iter r1.Refiner.history r4.Refiner.history);
  check_bool "cumulative pool stats identical" true
    (same_batch r1.Refiner.pool r4.Refiner.pool);
  check_int "same node count"
    (Net.node_count r1.Refiner.model.Qrmodel.net)
    (Net.node_count r4.Refiner.model.Qrmodel.net);
  check_bool "same policy counts" true
    (Net.count_policies r1.Refiner.model.Qrmodel.net
    = Net.count_policies r4.Refiner.model.Qrmodel.net);
  check_bool "evaluation totals identical" true
    (e1.Evaluation.Predict.totals = e4.Evaluation.Predict.totals);
  check_bool "evaluation coverage identical" true
    (e1.Evaluation.Predict.coverage = e4.Evaluation.Predict.coverage);
  check_bool "evaluation batches identical" true
    (same_batch e1.Evaluation.Predict.pool e4.Evaluation.Predict.pool)

let default_jobs_knob () =
  let module Runtime = Simulator.Runtime in
  let prior = Runtime.current () in
  Runtime.set { prior with jobs = Some 3 };
  check_int "override wins" 3 (Runtime.jobs ());
  Runtime.set { prior with jobs = Some 0 };
  check_int "clamped to 1" 1 (Runtime.jobs ());
  Runtime.set prior;
  Alcotest.(check bool) "restored" true (Runtime.current () = prior)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick map_preserves_order;
    Alcotest.test_case "map propagates exceptions" `Quick map_propagates_exceptions;
    Alcotest.test_case "stats merge" `Quick stats_merge;
    Alcotest.test_case "budget truncation counted" `Quick truncation_counted;
    Alcotest.test_case "jobs=1 vs jobs=4 determinism" `Quick jobs_determinism;
    Alcotest.test_case "default-jobs knob" `Quick default_jobs_knob;
  ]
