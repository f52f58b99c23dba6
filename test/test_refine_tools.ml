(* Tests for Verify, Incremental, Compress, Granularity, Casestudy —
   the tooling layer on top of the refiner. *)

open Bgp
module Net = Simulator.Net
module Qrmodel = Asmodel.Qrmodel
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

let graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

let training =
  Rib.of_entries
    [ entry 1 3 [ 1; 2; 3 ]; entry 1 4 [ 1; 4 ]; entry 1 4 [ 1; 5; 4 ] ]

let refined () =
  let m = Qrmodel.initial graph in
  let r = Refiner.refine m ~training in
  assert r.Refiner.converged;
  (m, r)

(* -- Verify -- *)

let verify_exact_after_refinement () =
  let m, r = refined () in
  let report = Refine.Verify.verify m ~states:r.Refiner.states training in
  check_bool "exact" true (Refine.Verify.is_exact report);
  check_int "all checked" 3 report.Refine.Verify.checked;
  check_int "no mismatches" 0 (List.length report.Refine.Verify.mismatches)

let verify_reports_mismatches () =
  let m = Qrmodel.initial graph in
  (* Unrefined model: the longer paths cannot match. *)
  let states = Hashtbl.create 8 in
  let report = Refine.Verify.verify m ~states training in
  check_bool "not exact" false (Refine.Verify.is_exact report);
  check_bool "mismatch found" true (report.Refine.Verify.mismatches <> []);
  (* The blocking AS of 1-5-4 is AS 1 itself (AS 5 selects 5-4 fine). *)
  let m154 =
    List.find
      (fun (x : Refine.Verify.mismatch) ->
        Aspath.to_list x.Refine.Verify.path = [ 1; 5; 4 ])
      report.Refine.Verify.mismatches
  in
  check_bool "blocking as" true (m154.Refine.Verify.blocking_as = Some 1)

let suffix_walk_equivalence () =
  let m, r = refined () in
  let net = m.Qrmodel.net in
  let p4 = Asn.origin_prefix 4 in
  let st = Hashtbl.find r.Refiner.states p4 in
  let arr = [| 1; 5; 4 |] in
  (* The allocation-free suffix walk must agree with the Array.sub
     formulation at every position, including the empty tail. *)
  for i = 0 to Array.length arr - 1 do
    let tail = Array.sub arr (i + 1) (Array.length arr - i - 1) in
    check_bool "same answer" true
      (Refine.Matching.nodes_selecting net st arr.(i) tail <> []
      = Refine.Matching.selects_at net st arr.(i) arr ~tail_at:(i + 1))
  done

(* The walk probes every suffix of every observed path against every
   quasi-router of an AS: reading the AS's nodes and their best paths
   allocates nothing. *)
let suffix_reads_allocate_nothing () =
  let m, r = refined () in
  let net = m.Qrmodel.net in
  let st = Hashtbl.find r.Refiner.states (Asn.origin_prefix 4) in
  let arr = [| 1; 5; 4 |] in
  let probe () =
    for i = 0 to Array.length arr - 1 do
      ignore (Refine.Matching.selects_at net st arr.(i) arr ~tail_at:(i + 1))
    done
  in
  probe ();
  check_bool "AS 1 selects 5 4" true
    (Refine.Matching.selects_at net st 1 arr ~tail_at:1);
  check_int "selects_at allocates nothing" 0
    (snd
       (Obs.Metrics.allocated_words (fun () ->
            for _ = 1 to 10_000 do
              probe ()
            done)))

let verify_unknown_prefix () =
  let m = Qrmodel.initial graph in
  let stray =
    Rib.of_entries
      [ { Rib.op = op 1; prefix = Prefix.of_string_exn "99.0.0.0/8";
          path = Aspath.of_list [ 1; 4 ] } ]
  in
  let report = Refine.Verify.verify m ~states:(Hashtbl.create 4) stray in
  check_int "counted as mismatch" 1 (List.length report.Refine.Verify.mismatches)

(* -- Incremental -- *)

let incremental_extension () =
  let m, _ = refined () in
  (* New observations: a path for AS 5's prefix never trained on, at a
     new observation AS. *)
  let fresh = Rib.of_entries [ entry 2 5 [ 2; 3; 4; 5 ] ] in
  let outcome = Refine.Incremental.add_observations m fresh in
  check_bool "fits the new prefix" true
    outcome.Refine.Incremental.result.Refiner.converged;
  (* ... and the old training data still matches exactly. *)
  let report = Refine.Verify.verify m ~states:(Hashtbl.create 8) training in
  check_bool "old matches preserved" true (Refine.Verify.is_exact report)

let incremental_counts_growth () =
  let m, _ = refined () in
  let nodes_before = Net.node_count m.Qrmodel.net in
  (* Force diversity for a new prefix at AS 1: both 1-4 and 1-5-4
     towards AS 5's prefix... 1-4-5 and 1-5. *)
  let fresh = Rib.of_entries [ entry 1 5 [ 1; 5 ]; entry 1 5 [ 1; 4; 5 ] ] in
  let outcome = Refine.Incremental.add_observations m fresh in
  check_bool "fits" true outcome.Refine.Incremental.result.Refiner.converged;
  check_int "reports node growth"
    (Net.node_count m.Qrmodel.net - nodes_before)
    outcome.Refine.Incremental.new_quasi_routers

let incremental_delta_added () =
  let m = Qrmodel.initial graph in
  (* Fitting the diverse training data from scratch must place MED
     rules: the added side of the signed delta. *)
  let outcome = Refine.Incremental.add_observations m training in
  check_bool "fits" true outcome.Refine.Incremental.result.Refiner.converged;
  let med = outcome.Refine.Incremental.med_rules in
  check_bool "med rules added" true (med.Refine.Incremental.added > 0);
  check_int "none removed" 0 med.Refine.Incremental.removed

let incremental_delta_removed () =
  let m, _ = refined () in
  let net = m.Qrmodel.net in
  (* Manually block the observed route 1-4 with a stray filter; fitting
     the observation again must delete it (the Figure-7 rule), which a
     raw unsigned count would report as zero new filters. *)
  let p4 = Asn.origin_prefix 4 in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let s = Option.get (Net.find_session net n4 n1) in
  Net.deny_export net n4 s p4;
  let fresh = Rib.of_entries [ entry 1 4 [ 1; 4 ] ] in
  let outcome = Refine.Incremental.add_observations m fresh in
  check_bool "fits" true outcome.Refine.Incremental.result.Refiner.converged;
  let filters = outcome.Refine.Incremental.filters in
  check_bool "filter removed" true (filters.Refine.Incremental.removed >= 1);
  check_bool "net delta negative" true
    (filters.Refine.Incremental.added < filters.Refine.Incremental.removed)

(* -- Compress -- *)

let compress_merges_redundant () =
  let m = Qrmodel.initial graph in
  (* Duplicate AS 4's quasi-router without any distinguishing policy:
     both copies behave identically and must merge back. *)
  let n4 = List.hd (Net.nodes_of_as m.Qrmodel.net 4) in
  ignore (Net.duplicate_node m.Qrmodel.net n4);
  check_int "grew" 6 (Net.node_count m.Qrmodel.net);
  let compacted, stats = Refine.Compress.compact m in
  check_int "merged back" 5 stats.Refine.Compress.nodes_after;
  check_int "nodes_before recorded" 6 stats.Refine.Compress.nodes_before;
  (* Behaviour preserved for every prefix. *)
  List.iter
    (fun (p, _) ->
      let st1 = Qrmodel.simulate m p in
      let st2 = Qrmodel.simulate compacted p in
      List.iter
        (fun asn ->
          check_bool "same selected paths" true
            (Simulator.Engine.selected_paths m.Qrmodel.net st1 asn
            = Simulator.Engine.selected_paths compacted.Qrmodel.net st2 asn))
        (Topology.Asgraph.nodes graph))
    m.Qrmodel.prefixes

let compress_keeps_needed_diversity () =
  let m, r = refined () in
  ignore r;
  match Refine.Compress.compact_verified m ~against:training with
  | None -> Alcotest.fail "compaction should succeed here"
  | Some (compacted, _stats) ->
      (* AS 1 still propagates both observed routes for p4. *)
      let st = Qrmodel.simulate compacted (Asn.origin_prefix 4) in
      let selected =
        Simulator.Engine.selected_paths compacted.Qrmodel.net st 1
      in
      check_bool "both routes survive" true
        (List.mem [| 1; 4 |] selected && List.mem [| 1; 5; 4 |] selected);
      let report =
        Refine.Verify.verify compacted ~states:(Hashtbl.create 8) training
      in
      check_bool "still exact" true (Refine.Verify.is_exact report)

(* -- Granularity -- *)

let granularity_counts () =
  let m = Qrmodel.initial graph in
  let g = Evaluation.Granularity.analyze m in
  check_int "all half-sessions" (Net.session_count m.Qrmodel.net)
    g.Evaluation.Granularity.sessions;
  check_int "no rules yet" 0 g.Evaluation.Granularity.sessions_with_rules;
  check_bool "per-neighbour suffices everywhere" true
    (g.Evaluation.Granularity.per_neighbor_sufficient = 1.0);
  (* After refinement some sessions need per-prefix treatment. *)
  let _ = Refiner.refine m ~training in
  let g2 = Evaluation.Granularity.analyze m in
  check_bool "rules appeared" true (g2.Evaluation.Granularity.sessions_with_rules > 0);
  check_bool "some session needs >1 atom" true
    (List.exists (fun (k, _) -> k > 1) g2.Evaluation.Granularity.atom_histogram)

(* -- Casestudy -- *)

let casestudy_views () =
  let m, _ = refined () in
  let study = Evaluation.Casestudy.study m (Asn.origin_prefix 4) in
  check_bool "origin known" true (study.Evaluation.Casestudy.origin = Some 4);
  (match
     List.find_opt
       (fun v -> v.Evaluation.Casestudy.asn = 1)
       study.Evaluation.Casestudy.views
   with
  | None -> Alcotest.fail "AS 1 should have a view"
  | Some v ->
      check_int "AS1 selects two routes" 2
        (List.length v.Evaluation.Casestudy.selected);
      check_int "AS1 has two quasi-routers" 2 v.Evaluation.Casestudy.quasi_routers;
      check_bool "selected is subset of received" true
        (List.for_all
           (fun p -> List.exists (Aspath.equal p) v.Evaluation.Casestudy.received)
           v.Evaluation.Casestudy.selected));
  let top = Evaluation.Casestudy.most_diverse study 3 in
  check_int "three most diverse" 3 (List.length top);
  check_bool "sorted by received count" true
    (match top with
    | a :: b :: _ ->
        List.length a.Evaluation.Casestudy.received
        >= List.length b.Evaluation.Casestudy.received
    | _ -> false)

let suite =
  [
    Alcotest.test_case "verify: exact after refinement" `Quick
      verify_exact_after_refinement;
    Alcotest.test_case "verify: reports mismatches" `Quick verify_reports_mismatches;
    Alcotest.test_case "verify: unknown prefix" `Quick verify_unknown_prefix;
    Alcotest.test_case "verify: suffix walk equivalence" `Quick
      suffix_walk_equivalence;
    Alcotest.test_case "verify: suffix reads allocate nothing" `Quick
      suffix_reads_allocate_nothing;
    Alcotest.test_case "incremental: extension" `Quick incremental_extension;
    Alcotest.test_case "incremental: growth counting" `Quick incremental_counts_growth;
    Alcotest.test_case "incremental: delta added" `Quick incremental_delta_added;
    Alcotest.test_case "incremental: delta removed" `Quick incremental_delta_removed;
    Alcotest.test_case "compress: merges redundant" `Quick compress_merges_redundant;
    Alcotest.test_case "compress: keeps needed diversity" `Quick
      compress_keeps_needed_diversity;
    Alcotest.test_case "granularity: counts" `Quick granularity_counts;
    Alcotest.test_case "casestudy: views" `Quick casestudy_views;
  ]
