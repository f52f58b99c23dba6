(* Tests for the synthetic-Internet substrate. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 17 }

let topo = Netgen.generate conf.family conf (Random.State.make [| 17 |])

let structure () =
  let n =
    conf.Netgen.Conf.n_tier1 + conf.Netgen.Conf.n_tier2
    + conf.Netgen.Conf.n_tier3 + conf.Netgen.Conf.n_stub
  in
  check_int "as count" n (List.length (Netgen.Gentopo.ases topo));
  check_bool "tier of first" true (Netgen.Gentopo.tier_of topo 1 = Netgen.Gentopo.T1);
  check_bool "stubs are stubs" true
    (Netgen.Gentopo.tier_of topo n = Netgen.Gentopo.Stub)

let tier1_clique () =
  let g = Netgen.Gentopo.as_graph topo in
  let t1 = List.init conf.Netgen.Conf.n_tier1 (fun i -> i + 1) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b then
            check_bool
              (Printf.sprintf "t1 %d-%d" a b)
              true
              (Topology.Asgraph.mem_edge g a b))
        t1)
    t1

let connectivity () =
  let g = Netgen.Gentopo.as_graph topo in
  let component = Topology.Asgraph.connected_component g 1 in
  check_int "single component" (Topology.Asgraph.num_nodes g)
    (Asn.Set.cardinal component)

let igp_metric () =
  (* IGP costs are a metric-ish: symmetric and zero on the diagonal. *)
  let ases = Netgen.Gentopo.ases topo in
  List.iter
    (fun asn ->
      let n = Asn.Map.find asn topo.Netgen.Gentopo.routers in
      for r1 = 0 to n - 1 do
        check_int "self distance" 0 (Netgen.Gentopo.igp_cost topo asn r1 r1);
        for r2 = 0 to n - 1 do
          check_int "symmetric"
            (Netgen.Gentopo.igp_cost topo asn r1 r2)
            (Netgen.Gentopo.igp_cost topo asn r2 r1)
        done
      done)
    ases

let determinism () =
  let t2 = Netgen.generate conf.family conf (Random.State.make [| 17 |]) in
  check_bool "same links" true (topo.Netgen.Gentopo.links = t2.Netgen.Gentopo.links)

let true_rel_consistency () =
  List.iter
    (fun (l : Netgen.Gentopo.link) ->
      let ab = Netgen.Gentopo.true_rel topo l.Netgen.Gentopo.a l.Netgen.Gentopo.b in
      let ba = Netgen.Gentopo.true_rel topo l.Netgen.Gentopo.b l.Netgen.Gentopo.a in
      match (ab, ba) with
      | Some `Provider, Some `Customer
      | Some `Customer, Some `Provider
      | Some `Peer, Some `Peer
      | Some `Sibling, Some `Sibling ->
          ()
      | _, _ -> Alcotest.fail "asymmetric relationship")
    topo.Netgen.Gentopo.links

let world = Netgen.Groundtruth.build conf

let world_convergence () =
  List.iter
    (fun (prefix, _, _) ->
      let st = Netgen.Groundtruth.simulate world prefix in
      check_bool "converged" true (Simulator.Engine.converged st))
    world.Netgen.Groundtruth.prefix_plan

let observation_points_valid () =
  let ops = Netgen.Groundtruth.observation_points world in
  check_bool "nonempty" true (ops <> []);
  List.iter
    (fun (node, op) ->
      check_bool "op as matches node as" true
        (Simulator.Net.asn_of world.Netgen.Groundtruth.net node = op.Rib.op_as))
    world.Netgen.Groundtruth.obs

let observe_consistency () =
  let data = Netgen.Groundtruth.observe world in
  check_bool "entries exist" true (Rib.size data > 0);
  (* Every observed path starts at its observation AS and its origin
     owns the prefix. *)
  List.iter
    (fun (e : Rib.entry) ->
      check_bool "head is obs as" true (Aspath.head e.Rib.path = Some e.Rib.op.Rib.op_as);
      match Aspath.origin e.Rib.path with
      | Some o -> check_bool "origin owns prefix" true (Asn.of_origin_prefix e.Rib.prefix = Some o)
      | None -> Alcotest.fail "empty path")
    (Rib.entries data);
  (* Deterministic: same seed, same world, same dumps. *)
  let world2 = Netgen.Groundtruth.build conf in
  let data2 = Netgen.Groundtruth.observe world2 in
  check_bool "deterministic" true (Rib.entries data = Rib.entries data2)

let observed_paths_loop_free () =
  let data = Netgen.Groundtruth.observe world in
  List.iter
    (fun p -> check_bool "loop-free" false (Aspath.has_loop p))
    (Rib.all_paths data)

let prefix_plan_sanity () =
  List.iter
    (fun (prefix, origin, anchors) ->
      check_bool "prefix belongs to origin" true
        (Asn.of_origin_prefix prefix = Some origin);
      check_bool "anchors nonempty" true (anchors <> []);
      List.iter
        (fun n ->
          check_bool "anchor in origin AS" true
            (Simulator.Net.asn_of world.Netgen.Groundtruth.net n = origin))
        anchors)
    world.Netgen.Groundtruth.prefix_plan

(* The dump built the way observation used to build it: keep every
   prefix's state, then read the observation points' paths. *)
let observe_reference (w : Netgen.Groundtruth.world) =
  let net = w.Netgen.Groundtruth.net in
  let states =
    List.map
      (fun (prefix, _, anchors) ->
        Simulator.Engine.simulate net ~prefix ~originators:anchors)
      w.Netgen.Groundtruth.prefix_plan
  in
  Rib.of_entries
    (List.concat
       (List.map2
          (fun (prefix, _, _) st ->
            List.filter_map
              (fun (node, op) ->
                Option.map
                  (fun path -> { Rib.op; prefix; path = Aspath.of_array path })
                  (Simulator.Engine.best_full_path net st node))
              w.Netgen.Groundtruth.obs)
          w.Netgen.Groundtruth.prefix_plan states))

let with_faults faults f =
  let module Runtime = Simulator.Runtime in
  let prior = Runtime.current () in
  Runtime.set { prior with faults };
  Fun.protect ~finally:(fun () -> Runtime.set prior) f

(* On every family, the observed dump is the reference one, with and
   without transient faults in the observation batch. *)
let observe_matches_reference () =
  let transient =
    Some
      { Simulator.Runtime.Fault.rate = 0.05; seed = 42; scope = Transient }
  in
  let retried = Obs.Metrics.find_counter "pool.retried" in
  List.iter
    (fun family ->
      let name = Netgen.Family.name family in
      let w =
        Netgen.Groundtruth.build
          { Netgen.Conf.tiny with Netgen.Conf.family; seed = 17 }
      in
      let want = Rib.entries (observe_reference w) in
      check_bool (name ^ ": observe = reference") true
        (Rib.entries (with_faults None (fun () -> Netgen.Groundtruth.observe w))
        = want);
      check_bool (name ^ ": under transient faults") true
        (Rib.entries
           (with_faults transient (fun () -> Netgen.Groundtruth.observe w))
        = want))
    Netgen.Family.
      [
        Paper; Waxman default_waxman; Glp default_glp; Fattree default_fattree;
      ];
  check_bool "the faults hit some observation task" true
    (Obs.Metrics.find_counter "pool.retried" > retried)

let suite =
  [
    Alcotest.test_case "structure" `Quick structure;
    Alcotest.test_case "tier-1 clique" `Quick tier1_clique;
    Alcotest.test_case "connectivity" `Quick connectivity;
    Alcotest.test_case "igp metric" `Quick igp_metric;
    Alcotest.test_case "determinism" `Quick determinism;
    Alcotest.test_case "true_rel consistency" `Quick true_rel_consistency;
    Alcotest.test_case "world convergence" `Slow world_convergence;
    Alcotest.test_case "observation points valid" `Quick observation_points_valid;
    Alcotest.test_case "observe consistency" `Slow observe_consistency;
    Alcotest.test_case "observed paths loop-free" `Slow observed_paths_loop_free;
    Alcotest.test_case "observe matches the keep-every-state reference" `Quick
      observe_matches_reference;
    Alcotest.test_case "prefix plan sanity" `Quick prefix_plan_sanity;
  ]
