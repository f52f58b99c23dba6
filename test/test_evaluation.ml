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
    Alcotest.test_case "quantile helpers" `Quick quantile_helpers;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
  ]
