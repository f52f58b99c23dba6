(* Tests for matching metrics and the iterative refinement heuristic —
   the paper's core contribution. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Qrmodel = Asmodel.Qrmodel
module Matching = Refine.Matching
module Refiner = Refine.Refiner

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let op asn = { Rib.op_ip = Asn.router_ip asn 0; op_as = asn }

let entry o origin path_list =
  {
    Rib.op = op o;
    prefix = Asn.origin_prefix origin;
    path = Aspath.of_list path_list;
  }

(* Figure 5's topology. *)
let fig5_graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

let fig5_training =
  Rib.of_entries
    [ entry 1 3 [ 1; 2; 3 ]; entry 1 4 [ 1; 4 ]; entry 1 4 [ 1; 5; 4 ] ]

(* -- matching -- *)

let grade m st path = Matching.grade m.Qrmodel.net st (Aspath.of_list path)

let verdict m st path = (grade m st path).Matching.verdict

let matching_verdicts () =
  let m = Qrmodel.initial fig5_graph in
  let p4 = Asn.origin_prefix 4 in
  let st = Qrmodel.simulate m p4 in
  check_bool "direct path selected" true
    (verdict m st [ 1; 4 ] = Matching.Rib_out);
  (* 1-5-4 is received (AS 5 selects 5-4 and exports) but loses on
     length. *)
  check_bool "longer path only in rib-in" true
    (verdict m st [ 1; 5; 4 ] = Matching.Rib_in);
  check_bool "eliminated at path length" true
    ((grade m st [ 1; 5; 4 ]).Matching.eliminated_at
    = Some Simulator.Decision.Path_length);
  (* A fantasy path never arrives. *)
  check_bool "absent path" true
    (verdict m st [ 1; 2; 3; 4 ] = Matching.No_rib_in);
  (* The origin's own trivial path. *)
  let st3 = Qrmodel.simulate m (Asn.origin_prefix 3) in
  check_bool "origin trivially matches" true
    (verdict m st3 [ 3 ] = Matching.Rib_out)

let matching_potential () =
  (* Diamond where the observed path loses only the final tie-break:
     1 hears 4's prefix via 2 (lower address) and 3 (higher address) at
     equal length; observing 1-3-4 is a potential RIB-Out match. *)
  let g = Topology.Asgraph.of_edges [ (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let m = Qrmodel.initial g in
  let st = Qrmodel.simulate m (Asn.origin_prefix 4) in
  check_bool "tie-break winner" true
    (verdict m st [ 1; 2; 4 ] = Matching.Rib_out);
  check_bool "tie-break loser is potential" true
    (verdict m st [ 1; 3; 4 ] = Matching.Potential_rib_out)

let training_suffixes_worklist () =
  let work = Refiner.training_suffixes fig5_training in
  check_int "two prefixes" 2 (List.length work);
  let p4_suffixes = List.assoc (Asn.origin_prefix 4) work in
  (* suffixes of 1-4 and 1-5-4: [4], [1;4], [5;4], [1;5;4] *)
  check_int "distinct suffixes" 4 (List.length p4_suffixes);
  check_bool "sorted shortest first" true
    (let lens = List.map (fun (s, _) -> Array.length s) p4_suffixes in
     List.sort compare lens = lens);
  (* The precomputed tail is the suffix minus its head AS. *)
  List.iter
    (fun (s, tail) ->
      check_int "tail length" (Array.length s - 1) (Array.length tail);
      check_bool "tail content" true
        (tail = Array.sub s 1 (Array.length s - 1)))
    p4_suffixes

(* -- refinement on the Figure 5 scenario -- *)

let fig5_refinement () =
  let m = Qrmodel.initial fig5_graph in
  let result = Refiner.refine m ~training:fig5_training in
  check_bool "converged" true result.Refiner.converged;
  check_int "all suffixes matched" result.Refiner.total result.Refiner.matched;
  (* AS 1 needed a second quasi-router for the 1-5-4 route. *)
  check_int "AS1 duplicated" 2 (Qrmodel.quasi_router_count m 1);
  check_int "AS4 untouched" 1 (Qrmodel.quasi_router_count m 4);
  (* And the refined model reproduces all three observed paths. *)
  let st4 = Qrmodel.simulate m (Asn.origin_prefix 4) in
  let selected = Engine.selected_paths m.Qrmodel.net st4 1 in
  check_bool "both p4 routes" true
    (List.mem [| 1; 4 |] selected && List.mem [| 1; 5; 4 |] selected);
  let st3 = Qrmodel.simulate m (Asn.origin_prefix 3) in
  check_bool "forced longer p3 route" true
    (List.mem [| 1; 2; 3 |] (Engine.selected_paths m.Qrmodel.net st3 1))

let refinement_idempotent () =
  (* Refining an already-refined model converges immediately with no
     new changes. *)
  let m = Qrmodel.initial fig5_graph in
  let r1 = Refiner.refine m ~training:fig5_training in
  let nodes_before = Net.node_count m.Qrmodel.net in
  let policies_before = Net.count_policies m.Qrmodel.net in
  let r2 = Refiner.refine m ~training:fig5_training in
  check_bool "still converged" true r2.Refiner.converged;
  check_int "single iteration" 1 r2.Refiner.iterations;
  check_int "no new nodes" nodes_before (Net.node_count m.Qrmodel.net);
  check_bool "no new policies" true
    (Net.count_policies m.Qrmodel.net = policies_before);
  check_int "same totals" r1.Refiner.total r2.Refiner.total

let single_router_cap () =
  (* With duplication disabled the 1-5-4 route cannot coexist with 1-4:
     exactly one of the two p4 paths stays unmatched. *)
  let m = Qrmodel.initial fig5_graph in
  let options = { Refiner.default_options with max_quasi_routers = 1 } in
  let result = Refiner.refine ~options m ~training:fig5_training in
  check_bool "cannot fully converge" false result.Refiner.converged;
  check_int "one quasi-router everywhere" 1 (Qrmodel.quasi_router_count m 1);
  check_int "misses exactly one suffix" (result.Refiner.total - 1)
    result.Refiner.matched

let filter_deletion_scenario () =
  (* Figure 7's essence: a filter placed while fitting a short path later
     blocks a longer observed path through the same neighbour and must
     be deleted.  Topology: 1-7, 7-4, 1-6, 6-4, 7-6 (so 7 can reach 4
     both directly and via 6).  Observed at 1: 1-7-4 is NOT observed;
     instead 1-6-4 and the longer 1-7-6-4 are. *)
  let g = Topology.Asgraph.of_edges [ (1, 7); (7, 4); (1, 6); (6, 4); (7, 6) ] in
  let training =
    Rib.of_entries [ entry 1 4 [ 1; 6; 4 ]; entry 1 4 [ 1; 7; 6; 4 ] ]
  in
  let m = Qrmodel.initial g in
  let result = Refiner.refine m ~training in
  check_bool "converged despite conflicting filters" true result.Refiner.converged;
  let st = Qrmodel.simulate m (Asn.origin_prefix 4) in
  let selected = Engine.selected_paths m.Qrmodel.net st 1 in
  check_bool "both observed routes realized" true
    (List.mem [| 1; 6; 4 |] selected && List.mem [| 1; 7; 6; 4 |] selected)

let med_disabled_ablation () =
  (* Without MED rules, same-length rivalries can only be settled by the
     address tie-break, so some training paths stay potential matches. *)
  let g = Topology.Asgraph.of_edges [ (1, 2); (1, 3); (2, 4); (3, 4) ] in
  let training = Rib.of_entries [ entry 1 4 [ 1; 3; 4 ] ] in
  let with_med = Refiner.refine (Qrmodel.initial g) ~training in
  check_bool "med settles it" true with_med.Refiner.converged;
  let options = { Refiner.default_options with ranking = Refiner.No_ranking } in
  let without = Refiner.refine ~options (Qrmodel.initial g) ~training in
  check_bool "filters alone cannot (same-length rival not filtered)" false
    without.Refiner.converged

let multi_point_training () =
  (* Observations from two different ASes must both be honoured. *)
  let g = Topology.Asgraph.of_edges [ (1, 2); (1, 3); (2, 4); (3, 4); (5, 2); (5, 3) ] in
  let training =
    Rib.of_entries
      [ entry 1 4 [ 1; 3; 4 ]; entry 5 4 [ 5; 2; 4 ]; entry 5 4 [ 5; 3; 4 ] ]
  in
  let m = Qrmodel.initial g in
  let result = Refiner.refine m ~training in
  check_bool "converged" true result.Refiner.converged;
  let st = Qrmodel.simulate m (Asn.origin_prefix 4) in
  check_bool "AS1 selects 1-3-4" true
    (List.mem [| 1; 3; 4 |] (Engine.selected_paths m.Qrmodel.net st 1));
  check_bool "AS5 has both" true
    (List.mem [| 5; 2; 4 |] (Engine.selected_paths m.Qrmodel.net st 5)
    && List.mem [| 5; 3; 4 |] (Engine.selected_paths m.Qrmodel.net st 5))

let history_is_monotone () =
  let m = Qrmodel.initial fig5_graph in
  let result = Refiner.refine m ~training:fig5_training in
  let matches = List.map (fun (h : Refiner.iter_stat) -> h.Refiner.matched)
      result.Refiner.history in
  check_bool "matched counts never decrease" true
    (List.sort compare matches = matches)

let unknown_as_in_training () =
  (* Paths through ASes absent from the graph are skipped, not fatal. *)
  let m = Qrmodel.initial fig5_graph in
  let training =
    Rib.of_entries [ entry 1 4 [ 1; 4 ]; entry 9 4 [ 99; 98; 4 ] ]
  in
  let result = Refiner.refine m ~training in
  check_bool "terminates" true (result.Refiner.iterations >= 1);
  check_bool "known path matched" true (result.Refiner.matched >= 2)

(* -- end-to-end property: refinement always reproduces the training set
   exactly on small random worlds (the paper's central claim). -- *)

let prop_training_always_reproduced =
  QCheck.Test.make ~name:"refinement reproduces training exactly" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = seed } in
      let world = Netgen.Groundtruth.build conf in
      let data = Netgen.Groundtruth.observe world in
      let prepared = Core.prepare data in
      let result =
        Core.build prepared ~training:prepared.Core.data
      in
      result.Refiner.converged)

let suite =
  [
    Alcotest.test_case "matching verdicts" `Quick matching_verdicts;
    Alcotest.test_case "matching potential rib-out" `Quick matching_potential;
    Alcotest.test_case "training suffix worklist" `Quick training_suffixes_worklist;
    Alcotest.test_case "figure-5 refinement" `Quick fig5_refinement;
    Alcotest.test_case "refinement idempotent" `Quick refinement_idempotent;
    Alcotest.test_case "single-router cap ablation" `Quick single_router_cap;
    Alcotest.test_case "filter deletion scenario" `Quick filter_deletion_scenario;
    Alcotest.test_case "med-disabled ablation" `Quick med_disabled_ablation;
    Alcotest.test_case "multi-point training" `Quick multi_point_training;
    Alcotest.test_case "history monotone" `Quick history_is_monotone;
    Alcotest.test_case "unknown AS tolerated" `Quick unknown_as_in_training;
    QCheck_alcotest.to_alcotest ~long:true prop_training_always_reproduced;
  ]
