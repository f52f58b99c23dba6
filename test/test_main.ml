(* Test entry point: one alcotest run covering every library. *)

let () =
  Alcotest.run "route_diversity"
    [
      ("ipv4", Test_ipv4.suite);
      ("prefix", Test_prefix.suite);
      ("asn", Test_asn.suite);
      ("aspath", Test_aspath.suite);
      ("mrt", Test_mrt.suite);
      ("mrt-binary", Test_mrt_binary.suite);
      ("rib", Test_rib.suite);
      ("asgraph", Test_asgraph.suite);
      ("topology", Test_topology.suite);
      ("relationships", Test_relationships.suite);
      ("decision", Test_decision.suite);
      ("net", Test_net.suite);
      ("policy-store", Test_policy_store.suite);
      ("engine", Test_engine.suite);
      ("pool", Test_pool.suite);
      ("warm", Test_warm.suite);
      ("obs", Test_obs.suite);
      ("faultinject", Test_faultinject.suite);
      ("netgen", Test_netgen.suite);
      ("asmodel", Test_asmodel.suite);
      ("refiner", Test_refiner.suite);
      ("evaluation", Test_evaluation.suite);
      ("extensions", Test_extensions.suite);
      ("refine-tools", Test_refine_tools.suite);
      ("route-reflection", Test_route_reflection.suite);
      ("trace-inflation", Test_trace_inflation.suite);
      ("properties", Test_properties.suite);
      ("report", Test_report.suite);
      ("dot", Test_dot.suite);
      ("misc", Test_misc.suite);
      ("divergence", Test_divergence.suite);
      ("integration", Test_integration.suite);
      ("analysis", Test_analysis.suite);
      ("stream", Test_stream.suite);
      ("scale", Test_scale.suite);
      ("serve", Test_serve.suite);
      ("family", Test_family.suite);
      ("topometrics", Test_topometrics.suite);
    ]
