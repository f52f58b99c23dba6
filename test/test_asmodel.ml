(* Tests for the quasi-router model, serialization, baselines, what-if. *)

open Bgp
module Net = Simulator.Net
module Qrmodel = Asmodel.Qrmodel
module Runtime = Simulator.Runtime

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

let initial_model () =
  let m = Qrmodel.initial graph in
  check_int "one quasi-router per AS" (Topology.Asgraph.num_nodes graph)
    (Net.node_count m.Qrmodel.net);
  check_int "one session per edge"
    (2 * Topology.Asgraph.num_edges graph)
    (Net.session_count m.Qrmodel.net);
  check_int "one prefix per AS" (Topology.Asgraph.num_nodes graph)
    (List.length m.Qrmodel.prefixes);
  check_bool "origin lookup" true (Qrmodel.origin_of m (Asn.origin_prefix 3) = Some 3);
  check_bool "unknown prefix" true
    (Qrmodel.origin_of m (Prefix.of_string_exn "99.0.0.0/8") = None);
  check_int "originators" 1 (List.length (Qrmodel.originators m (Asn.origin_prefix 3)))

let model_simulation () =
  let m = Qrmodel.initial graph in
  let st = Qrmodel.simulate m (Asn.origin_prefix 3) in
  check_bool "converged" true (Simulator.Engine.converged st);
  (* AS 5 reaches 3 via 4 (shortest). *)
  let n5 = List.hd (Net.nodes_of_as m.Qrmodel.net 5) in
  check_bool "shortest" true
    (Simulator.Engine.best_full_path m.Qrmodel.net st n5 = Some [| 5; 4; 3 |])

let histogram () =
  let m = Qrmodel.initial graph in
  check_bool "all size 1" true (Qrmodel.quasi_router_histogram m = [ (1, 5) ]);
  let n1 = List.hd (Net.nodes_of_as m.Qrmodel.net 1) in
  ignore (Net.duplicate_node m.Qrmodel.net n1);
  check_bool "after duplication" true
    (Qrmodel.quasi_router_histogram m = [ (1, 4); (2, 1) ]);
  check_int "count for AS1" 2 (Qrmodel.quasi_router_count m 1);
  check_int "total" 6 (Qrmodel.total_quasi_routers m)

let serialize_roundtrip () =
  let m = Qrmodel.initial graph in
  (* Decorate with policies and a duplicate so the round-trip is
     non-trivial. *)
  let n1 = List.hd (Net.nodes_of_as m.Qrmodel.net 1) in
  let n2 = List.hd (Net.nodes_of_as m.Qrmodel.net 2) in
  let s12 = Option.get (Net.find_session m.Qrmodel.net n1 n2) in
  Net.deny_export m.Qrmodel.net n1 s12 (Asn.origin_prefix 3);
  Net.set_import_med m.Qrmodel.net n1 s12 (Asn.origin_prefix 4) 0;
  ignore (Net.duplicate_node m.Qrmodel.net n1);
  let lines = Asmodel.Serialize.to_lines m in
  match Asmodel.Serialize.of_lines lines with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok m2 ->
      check_int "node count" (Net.node_count m.Qrmodel.net)
        (Net.node_count m2.Qrmodel.net);
      check_int "session count" (Net.session_count m.Qrmodel.net)
        (Net.session_count m2.Qrmodel.net);
      check_bool "prefixes" true (m.Qrmodel.prefixes = m2.Qrmodel.prefixes);
      (* Policies survived. *)
      let n1' = List.hd (Net.nodes_of_as m2.Qrmodel.net 1) in
      let n2' = List.hd (Net.nodes_of_as m2.Qrmodel.net 2) in
      let s12' = Option.get (Net.find_session m2.Qrmodel.net n1' n2') in
      check_bool "deny survived" true
        (Net.export_denied m2.Qrmodel.net n1' s12' (Asn.origin_prefix 3));
      check_bool "med survived" true
        (Net.import_med m2.Qrmodel.net n1' s12' (Asn.origin_prefix 4) = Some 0);
      (* Behaviour identical: same best paths for every prefix. *)
      List.iter
        (fun (p, _) ->
          let st = Qrmodel.simulate m p and st2 = Qrmodel.simulate m2 p in
          List.iter
            (fun asn ->
              check_bool "same selected paths" true
                (Simulator.Engine.selected_paths m.Qrmodel.net st asn
                = Simulator.Engine.selected_paths m2.Qrmodel.net st2 asn))
            (Topology.Asgraph.nodes graph))
        m.Qrmodel.prefixes

(* Model files are canonical: the same rules placed in any order save
   to the same lines, and saving a loaded model reproduces its file. *)
let serialize_canonical () =
  let decorate order =
    let m = Qrmodel.initial graph in
    let net = m.Qrmodel.net in
    let node asn = List.hd (Net.nodes_of_as net asn) in
    let rules =
      List.concat_map
        (fun (a, b) ->
          let s = Option.get (Net.find_session net (node a) (node b)) in
          List.map (fun origin -> (node a, s, Asn.origin_prefix origin)) [ 2; 3; 5 ])
        [ (1, 2); (4, 3); (4, 1); (1, 5); (5, 4) ]
    in
    List.iter
      (fun (n, s, p) ->
        Net.deny_export net n s p;
        Net.set_import_med net n s p 0)
      (order rules);
    ignore (Net.duplicate_node net (node 4));
    Asmodel.Serialize.to_lines m
  in
  let lines = decorate Fun.id in
  Alcotest.(check (list string))
    "placement order does not matter" lines (decorate List.rev);
  match Asmodel.Serialize.of_lines lines with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok m2 ->
      Alcotest.(check (list string))
        "save . load = id" lines
        (Asmodel.Serialize.to_lines m2)

let serialize_rejects_garbage () =
  check_bool "bad keyword" true
    (Result.is_error (Asmodel.Serialize.of_lines [ "frobnicate 1 2" ]));
  check_bool "bad edge" true
    (Result.is_error
       (Asmodel.Serialize.of_lines [ "node 0 1 1.0.0.1"; "edge 0 7" ]));
  check_bool "deny without session" true
    (Result.is_error
       (Asmodel.Serialize.of_lines
          [ "node 0 1 1.0.0.1"; "node 1 2 2.0.0.1"; "deny 0 1 10.0.0.0/24" ]))

let baseline_policies_model () =
  let rels = Topology.Relationships.infer graph [ Aspath.of_list [ 3; 2; 1; 4 ] ] in
  let m = Asmodel.Baseline.with_policies graph rels in
  check_int "one router per AS" 5 (Net.node_count m.Qrmodel.net);
  (* Import preferences follow the relationship classes. *)
  let n2 = List.hd (Net.nodes_of_as m.Qrmodel.net 2) in
  let n1 = List.hd (Net.nodes_of_as m.Qrmodel.net 1) in
  let s21 = Option.get (Net.find_session m.Qrmodel.net n2 n1) in
  let expected =
    Simulator.Relclass.lpref
      (Asmodel.Baseline.class_of_rel (Topology.Relationships.rel rels 2 1))
  in
  check_bool "lpref from inferred class" true
    (Net.import_lpref m.Qrmodel.net n2 s21 = Some expected)

(* Prefixes whose selected paths differ between two state lists of the
   same prefixes. *)
let differing m states states' =
  List.fold_left2
    (fun n (_, before) (_, after) ->
      match Asmodel.Whatif.changed_ases m.Qrmodel.net (Some before) after with
      | [], _ -> n
      | _ -> n + 1)
    0 states states'

let whatif_link_removal () =
  let m = Qrmodel.initial graph in
  let before, _ = Qrmodel.simulate_all m in
  let half_sessions, diff = Asmodel.Whatif.eval m before 4 5 in
  check_int "two half-sessions" 2 half_sessions;
  check_bool "something changed" true (diff.Asmodel.Whatif.prefixes_affected > 0);
  (* AS 5 still reaches 3: via 1 now. *)
  let disabled = Asmodel.Whatif.disable_as_link m 4 5 in
  let st = Qrmodel.simulate m (Asn.origin_prefix 3) in
  let n5 = List.hd (Net.nodes_of_as m.Qrmodel.net 5) in
  check_bool "rerouted" true
    (Simulator.Engine.best_full_path m.Qrmodel.net st n5 = Some [| 5; 1; 2; 3 |]);
  (* Restore: the what-if and the disable both lifted their denies. *)
  Asmodel.Whatif.enable_as_link m disabled;
  let restored, _ = Qrmodel.simulate_all m in
  check_int "fully restored (no refinement filters involved)" 0
    (differing m before restored)

let whatif_unknown_link () =
  let m = Qrmodel.initial graph in
  check_int "no session" 0
    (Asmodel.Whatif.disable_as_link m 2 5).Asmodel.Whatif.half_sessions

(* The revert must be an exact save/restore: a deny placed on the link's
   sessions before the what-if (as the refiner does) survives the
   what-if, and predictions are bit-identical.  The filter sits on a
   prefix whose best route crosses the link (5 reaches 3 over 4), so the
   what-if's own deny lands on the filter's slot. *)
let whatif_roundtrip_preserves_filters () =
  let m = Qrmodel.initial graph in
  let net = m.Qrmodel.net in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let n5 = List.hd (Net.nodes_of_as net 5) in
  let s54 = Option.get (Net.find_session net n5 n4) in
  (* A refiner-style filter on the very link the what-if toggles. *)
  Net.deny_export net n5 s54 (Asn.origin_prefix 3);
  let before, _ = Qrmodel.simulate_all m in
  let denies_before, _ = Net.count_policies net in
  ignore (Asmodel.Whatif.eval m before 4 5);
  check_bool "refiner filter survived" true
    (Net.export_denied net n5 s54 (Asn.origin_prefix 3));
  let denies_after, _ = Net.count_policies net in
  check_int "deny count restored" denies_before denies_after;
  let restored, _ = Qrmodel.simulate_all m in
  check_int "predictions identical" 0 (differing m before restored)

(* A prefix whose state cannot seed a warm resume is re-simulated even
   when its best routes keep off the link: prefix 1's bests reach 4 and
   5 straight from 1, but its state here is truncated after one event. *)
let whatif_resimulates_unresumable () =
  let m = Qrmodel.initial graph in
  let net = m.Qrmodel.net in
  let p1 = Asn.origin_prefix 1 in
  let truncated =
    Simulator.Engine.simulate ~max_events:1 net ~prefix:p1
      ~originators:(Qrmodel.originators m p1)
  in
  check_bool "truncated state is not resumable" false
    (Simulator.Engine.resumable net truncated);
  let states, _ = Qrmodel.simulate_all m in
  let states =
    List.map
      (fun (p, st) -> if Prefix.equal p p1 then (p, truncated) else (p, st))
      states
  in
  (* Warm pinned on, faults off: a fault retry would add cold runs. *)
  let prior = Runtime.current () in
  Runtime.set { prior with Runtime.warm = Runtime.Warm_mode.On; faults = None };
  Fun.protect ~finally:(fun () -> Runtime.set prior) @@ fun () ->
  let cold0 = (Simulator.Warm.stats ()).Simulator.Warm.cold_runs in
  let _, diff = Asmodel.Whatif.eval m states 4 5 in
  check_int "the truncated prefix alone runs cold" 1
    ((Simulator.Warm.stats ()).Simulator.Warm.cold_runs - cold0);
  check_bool "and is answered" true
    (List.exists
       (fun c -> Prefix.equal c.Asmodel.Whatif.prefix p1)
       diff.Asmodel.Whatif.changes)

(* A state from before a duplication resumes warm, but its bests are
   stale: the what-if re-simulates every such state, where current
   states whose bests keep off the link (prefix 1's, as above) are
   pruned. *)
let whatif_resimulates_stale_state () =
  let m = Qrmodel.initial graph in
  let net = m.Qrmodel.net in
  let stale, _ = Qrmodel.simulate_all m in
  ignore (Net.duplicate_node net (List.hd (Net.nodes_of_as net 2)));
  let current, _ = Qrmodel.simulate_all m in
  check_bool "stale states are resumable" true
    (List.for_all (fun (_, st) -> Simulator.Engine.resumable net st) stale);
  let prior = Runtime.current () in
  Runtime.set { prior with Runtime.warm = Runtime.Warm_mode.On; faults = None };
  Fun.protect ~finally:(fun () -> Runtime.set prior) @@ fun () ->
  (* (resumed, cold) runs of one what-if. *)
  let runs states =
    let w0 = Simulator.Warm.stats () in
    ignore (Asmodel.Whatif.eval m states 4 5);
    let w1 = Simulator.Warm.stats () in
    ( w1.Simulator.Warm.warm_runs - w0.Simulator.Warm.warm_runs,
      w1.Simulator.Warm.cold_runs - w0.Simulator.Warm.cold_runs )
  in
  check_bool "current states off the link are pruned" true
    (fst (runs current) < List.length current);
  Alcotest.(check (pair int int))
    "every stale state crosses, and resumes"
    (List.length stale, 0) (runs stale)

(* A second disable of the same link places nothing (its denies are
   already there), so lifting both values leaks no deny. *)
let whatif_double_disable () =
  let m = Qrmodel.initial graph in
  let net = m.Qrmodel.net in
  let denies_before, _ = Net.count_policies net in
  let first = Asmodel.Whatif.disable_as_link m 4 5 in
  let second = Asmodel.Whatif.disable_as_link m 4 5 in
  Asmodel.Whatif.enable_as_link m second;
  Asmodel.Whatif.enable_as_link m first;
  let denies_after, _ = Net.count_policies net in
  check_int "no leaked denies" denies_before denies_after

let suite =
  [
    Alcotest.test_case "initial model" `Quick initial_model;
    Alcotest.test_case "model simulation" `Quick model_simulation;
    Alcotest.test_case "quasi-router histogram" `Quick histogram;
    Alcotest.test_case "serialize roundtrip" `Quick serialize_roundtrip;
    Alcotest.test_case "serialize canonical" `Quick serialize_canonical;
    Alcotest.test_case "serialize rejects garbage" `Quick serialize_rejects_garbage;
    Alcotest.test_case "baseline policies model" `Quick baseline_policies_model;
    Alcotest.test_case "whatif link removal" `Quick whatif_link_removal;
    Alcotest.test_case "whatif unknown link" `Quick whatif_unknown_link;
    Alcotest.test_case "whatif roundtrip preserves filters" `Quick
      whatif_roundtrip_preserves_filters;
    Alcotest.test_case "whatif double disable" `Quick whatif_double_disable;
    Alcotest.test_case "whatif resimulates a non-resumable state" `Quick
      whatif_resimulates_unresumable;
    Alcotest.test_case "whatif resimulates a state from before a duplication"
      `Quick whatif_resimulates_stale_state;
  ]
