(* Tests for splits, agreement grading, prediction metrics, quantiles. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let op asn i = { Rib.op_ip = Asn.router_ip asn i; op_as = asn }

let entry o i origin path_list =
  {
    Rib.op = op o i;
    prefix = Asn.origin_prefix origin;
    path = Aspath.of_list path_list;
  }

let data =
  Rib.of_entries
    [
      entry 1 0 4 [ 1; 4 ];
      entry 1 1 4 [ 1; 5; 4 ];
      entry 2 0 4 [ 2; 4 ];
      entry 3 0 4 [ 3; 4 ];
      entry 3 0 5 [ 3; 4; 5 ];
    ]

let split_partition () =
  let s = Evaluation.Split.by_observation_points ~seed:1 data in
  let train_pts = Rib.observation_points s.Evaluation.Split.training in
  let valid_pts = Rib.observation_points s.Evaluation.Split.validation in
  check_bool "both sides inhabited" true (train_pts <> [] && valid_pts <> []);
  check_bool "disjoint" true
    (List.for_all (fun p -> not (List.mem p valid_pts)) train_pts);
  check_int "nothing lost"
    (Rib.size data)
    (Rib.size s.Evaluation.Split.training + Rib.size s.Evaluation.Split.validation)

let split_deterministic () =
  let s1 = Evaluation.Split.by_observation_points ~seed:5 data in
  let s2 = Evaluation.Split.by_observation_points ~seed:5 data in
  check_bool "same split for same seed" true
    (Rib.entries s1.Evaluation.Split.training
    = Rib.entries s2.Evaluation.Split.training)

let split_by_origin () =
  let s = Evaluation.Split.by_origin_ases ~seed:2 data in
  let torigins = Rib.origins s.Evaluation.Split.training in
  let vorigins = Rib.origins s.Evaluation.Split.validation in
  check_bool "origin sets disjoint" true
    (Asn.Set.is_empty (Asn.Set.inter torigins vorigins))

let combined_split () =
  let s = Evaluation.Split.combined ~seed:3 data in
  (* Training origins and validation origins are disjoint, and so are
     the observation points. *)
  let to_ = Rib.origins s.Evaluation.Split.training in
  let vo = Rib.origins s.Evaluation.Split.validation in
  check_bool "origins disjoint" true (Asn.Set.is_empty (Asn.Set.inter to_ vo));
  let tp = Rib.observation_points s.Evaluation.Split.training in
  let vp = Rib.observation_points s.Evaluation.Split.validation in
  check_bool "points disjoint" true
    (List.for_all (fun p -> not (List.mem p vp)) tp)

let graph = Topology.Asgraph.of_edges [ (1, 4); (1, 5); (2, 4); (3, 4); (4, 5) ]

let agreement_grading () =
  let m = Asmodel.Baseline.shortest_path graph in
  let b = Evaluation.Agreement.simulate_and_grade m data in
  check_int "all cases graded" 5 b.Evaluation.Agreement.cases;
  (* 1-4, 2-4, 3-4 agree trivially (shortest); 1-5-4 loses on length;
     3-4-5 disagrees with the direct 4-5 announcement seen via 4... it
     is the shortest available at 3, so it also agrees. *)
  check_bool "most agree" true (b.Evaluation.Agreement.agree >= 3);
  let pct = Evaluation.Agreement.agree_fraction b in
  check_bool "fraction consistent" true
    (abs_float
       (pct
       -. (float_of_int b.Evaluation.Agreement.agree /. 5.0))
    < 1e-9)

let prediction_report () =
  let m = Asmodel.Qrmodel.initial graph in
  let states = Hashtbl.create 8 in
  let r = Evaluation.Predict.evaluate m ~states data in
  check_int "cases" 5 r.Evaluation.Predict.totals.Evaluation.Predict.cases;
  let sum =
    r.Evaluation.Predict.totals.Evaluation.Predict.rib_out
    + r.Evaluation.Predict.totals.Evaluation.Predict.potential_rib_out
    + r.Evaluation.Predict.totals.Evaluation.Predict.rib_in
    + r.Evaluation.Predict.totals.Evaluation.Predict.no_rib_in
    + r.Evaluation.Predict.totals.Evaluation.Predict.unresolved
  in
  check_int "verdicts partition cases" 5 sum;
  check_int "nothing unresolved here" 0
    r.Evaluation.Predict.totals.Evaluation.Predict.unresolved;
  check_bool "fractions ordered" true
    (Evaluation.Predict.exact_fraction r
     <= Evaluation.Predict.down_to_tie_break_fraction r
    && Evaluation.Predict.down_to_tie_break_fraction r
       <= Evaluation.Predict.rib_in_fraction r);
  check_bool "coverage counts consistent" true
    (let c = r.Evaluation.Predict.coverage in
     c.Evaluation.Predict.full <= c.Evaluation.Predict.at_least_90
     && c.Evaluation.Predict.at_least_90 <= c.Evaluation.Predict.at_least_half
     && c.Evaluation.Predict.at_least_half <= c.Evaluation.Predict.prefixes)

(* -- the grading walk -- *)

module Matching = Refine.Matching
module Predict = Evaluation.Predict
module Verify = Refine.Verify
module Agreement = Evaluation.Agreement

(* The bad gadget as a model: ASes 1, 2 and 3 in a ring around origin
   AS 10, each preferring its clockwise neighbour's route to AS 10's
   prefix, so that prefix never converges. *)
let gadget_model () =
  let g =
    Topology.Asgraph.of_edges
      [ (1, 10); (2, 10); (3, 10); (1, 2); (2, 3); (3, 1) ]
  in
  let m = Asmodel.Qrmodel.initial g in
  let net = m.Asmodel.Qrmodel.net in
  let node a = List.hd (Simulator.Net.nodes_of_as net a) in
  for a = 1 to 3 do
    match Simulator.Net.find_session net (node a) (node ((a mod 3) + 1)) with
    | Some s ->
        Simulator.Net.set_import_lpref_for net (node a) s
          (Asn.origin_prefix 10) 200
    | None -> assert false
  done;
  m

(* A prefix without a converged state answers nothing: Verify,
   Agreement and Predict count its paths as unresolved, never as
   mismatches, whether its state diverged in a scoped run or is a
   truncated one the caller cached. *)
let unresolved_not_mismatch () =
  let m = gadget_model () in
  let gadget =
    Rib.of_entries
      [ entry 1 0 10 [ 1; 10 ]; entry 1 1 10 [ 1; 2; 10 ]; entry 2 0 1 [ 2; 1 ] ]
  in
  let states = Hashtbl.create 4 in
  let v = Verify.verify m ~states gadget in
  check_int "verify: checked" 3 v.Verify.checked;
  check_int "verify: exact" 1 v.Verify.exact;
  check_int "verify: unresolved" 2 v.Verify.unresolved;
  check_int "verify: no mismatch" 0 (List.length v.Verify.mismatches);
  check_bool "verify: not exact" false (Verify.is_exact v);
  check_int "states are only read" 0 (Hashtbl.length states);
  let b = Agreement.simulate_and_grade m gadget in
  check_int "agreement: cases" 3 b.Agreement.cases;
  check_int "agreement: agree" 1 b.Agreement.agree;
  check_int "agreement: unresolved" 2 b.Agreement.unresolved;
  check_int "agreement: not available" 0 b.Agreement.not_available;
  check_bool "agreement: no elimination" true (b.Agreement.by_step = []);
  let m = Asmodel.Qrmodel.initial graph in
  let p4 = Asn.origin_prefix 4 in
  let states = Hashtbl.create 4 in
  let truncated = Asmodel.Qrmodel.simulate ~max_events:1 m p4 in
  check_bool "truncated" false (Simulator.Engine.converged truncated);
  Hashtbl.replace states p4 truncated;
  let v = Verify.verify m ~states data in
  check_int "cached: checked" 5 v.Verify.checked;
  check_int "cached: unresolved" 4 v.Verify.unresolved;
  check_int "cached: no mismatch" 0 (List.length v.Verify.mismatches);
  let r = Predict.evaluate m ~states data in
  check_int "cached: predict unresolved" 4
    r.Predict.totals.Predict.unresolved;
  check_int "cached: predict cases" 5 r.Predict.totals.Predict.cases;
  check_bool "the cached state is kept" true (Hashtbl.find states p4 == truncated)

(* Every state cached or none: the walk grades the same, on every
   family, at one worker and at four. *)
let cached_equals_scoped () =
  let with_jobs j f =
    let prior = Simulator.Runtime.current () in
    Simulator.Runtime.set { prior with Simulator.Runtime.jobs = Some j };
    Fun.protect ~finally:(fun () -> Simulator.Runtime.set prior) f
  in
  List.iter
    (fun family ->
      let name = Netgen.Family.name family in
      let raw =
        Netgen.Groundtruth.observe
          (Netgen.Groundtruth.build
             { Netgen.Conf.tiny with Netgen.Conf.family; seed = 17 })
      in
      let m = Asmodel.Qrmodel.initial (Core.prepare raw).Core.graph in
      let data = Rib.collapse_to_origin raw in
      let cached = Hashtbl.create 64 in
      List.iter
        (fun (p, st) -> Hashtbl.replace cached p st)
        (fst (Asmodel.Qrmodel.simulate_all m));
      let grade states =
        let w = Matching.walk m ~states data in
        (Predict.of_walk w, Verify.of_walk w, Agreement.of_walk m w)
      in
      let want_p, want_v, want_a = grade cached in
      check_int (name ^ ": nothing to simulate") 0
        want_p.Predict.pool.Simulator.Pool.prefixes;
      check_bool (name ^ ": some mismatch") true (want_v.Verify.mismatches <> []);
      List.iter
        (fun j ->
          with_jobs j @@ fun () ->
          let case what = Printf.sprintf "%s, %d jobs: %s" name j what in
          let p, v, a = grade (Hashtbl.create 0) in
          check_bool (case "every modelled prefix ran scoped") true
            (p.Predict.pool.Simulator.Pool.prefixes = Hashtbl.length cached);
          check_bool (case "predict totals") true
            (p.Predict.totals = want_p.Predict.totals);
          check_bool (case "predict coverage") true
            (p.Predict.coverage = want_p.Predict.coverage);
          check_bool (case "verify report") true (v = want_v);
          check_bool (case "agreement breakdown") true (a = want_a);
          check_bool (case "simulate_and_grade") true
            (Agreement.simulate_and_grade m data = want_a))
        [ 1; 4 ])
    Netgen.Family.
      [
        Paper; Waxman default_waxman; Glp default_glp; Fattree default_fattree;
      ]

let quantile_helpers () =
  let sample = [| 5; 1; 3; 2; 4 |] in
  check_int "median" 3 (Evaluation.Quantiles.percentile sample 50.0);
  check_int "max at 100" 5 (Evaluation.Quantiles.percentile sample 100.0);
  check_int "min at tiny p" 1 (Evaluation.Quantiles.percentile sample 1.0);
  check_int "empty" 0 (Evaluation.Quantiles.percentile [||] 50.0);
  check_bool "histogram" true
    (Evaluation.Quantiles.histogram [ 1; 1; 2 ] = [ (1, 2); (2, 1) ]);
  check_bool "mean" true (abs_float (Evaluation.Quantiles.mean [ 1; 2; 3 ] -. 2.0) < 1e-9);
  let c = Evaluation.Quantiles.ccdf [ 1; 1; 2; 4 ] in
  check_bool "ccdf starts at 1" true
    (match c with (1, f) :: _ -> abs_float (f -. 1.0) < 1e-9 | _ -> false);
  check_bool "log bins" true
    (Evaluation.Quantiles.log_binned [ (1, 5); (2, 3); (3, 2); (9, 1) ]
    = [ (1, 1, 5); (2, 3, 5); (8, 15, 1) ])

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone in p" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_bound 100))
    (fun values ->
      let sample = Array.of_list values in
      let q25 = Evaluation.Quantiles.percentile (Array.copy sample) 25.0 in
      let q50 = Evaluation.Quantiles.percentile (Array.copy sample) 50.0 in
      let q99 = Evaluation.Quantiles.percentile (Array.copy sample) 99.0 in
      q25 <= q50 && q50 <= q99)

let suite =
  [
    Alcotest.test_case "split partitions points" `Quick split_partition;
    Alcotest.test_case "split deterministic" `Quick split_deterministic;
    Alcotest.test_case "split by origin" `Quick split_by_origin;
    Alcotest.test_case "combined split" `Quick combined_split;
    Alcotest.test_case "agreement grading" `Quick agreement_grading;
    Alcotest.test_case "prediction report" `Quick prediction_report;
    Alcotest.test_case "unresolved is not a mismatch" `Quick
      unresolved_not_mismatch;
    Alcotest.test_case "cached = scoped grading" `Quick cached_equals_scoped;
    Alcotest.test_case "quantile helpers" `Quick quantile_helpers;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
  ]
