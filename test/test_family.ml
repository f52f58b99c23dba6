(* Tests for the Netgen.Family dispatcher and the non-paper generator
   families: parsing, per-family structural invariants, and
   whole-pipeline determinism. *)

open Bgp
module Family = Netgen.Family
module Gentopo = Netgen.Gentopo

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 17 }

let families =
  [
    Family.Paper;
    Family.Waxman Family.default_waxman;
    Family.Waxman { Family.alpha = 0.9; beta = 0.5 };
    Family.Glp Family.default_glp;
    Family.Glp { Family.m = 3; p = 0.3; beta = 0.2 };
    Family.Fattree Family.default_fattree;
    Family.Fattree { Family.pods = 4 };
  ]

let topo_of family = Netgen.generate family conf (Random.State.make [| 17 |])

(* --- Family.of_string / to_string ---------------------------------- *)

let roundtrip () =
  List.iter
    (fun f ->
      match Family.of_string (Family.to_string f) with
      | Ok f' ->
          check_bool (Family.to_string f ^ " round-trips") true (f = f')
      | Error e -> Alcotest.failf "%s failed to reparse: %s" (Family.to_string f) e)
    families

let parse_defaults () =
  check_bool "bare waxman" true
    (Family.of_string "waxman" = Ok (Family.Waxman Family.default_waxman));
  check_bool "bare glp" true
    (Family.of_string "glp" = Ok (Family.Glp Family.default_glp));
  check_bool "case-insensitive name" true
    (Family.of_string "PAPER" = Ok Family.Paper);
  check_bool "partial params keep defaults" true
    (Family.of_string "waxman:alpha=0.7"
    = Ok (Family.Waxman { Family.default_waxman with Family.alpha = 0.7 }))

let parse_rejections () =
  let rejected s =
    match Family.of_string s with
    | Error _ -> ()
    | Ok f -> Alcotest.failf "%S accepted as %s" s (Family.to_string f)
  in
  List.iter rejected
    [
      "nope";
      "";
      "waxman:alpha=nan";
      "waxman:alpha=0";
      "waxman:alpha=2.0";
      "waxman:zz=1";
      "waxman:alpha=0.4,alpha=0.5";
      "waxman:alpha";
      "waxman:";
      "glp:m=0";
      "glp:p=1.5";
      "glp:beta=2";
      "fattree:pods=3";
      "fattree:pods=-2";
      "paper:x=1";
    ]

let name_and_pp () =
  check_string "name strips params" "waxman"
    (Family.name (Family.Waxman { Family.alpha = 0.9; beta = 0.5 }));
  check_string "pp is to_string" "fattree:pods=4"
    (Format.asprintf "%a" Family.pp (Family.Fattree { Family.pods = 4 }));
  check_bool "default fattree omits pods" true
    (Family.to_string (Family.Fattree Family.default_fattree) = "fattree");
  check_bool "syntax help mentions every family" true
    (List.for_all
       (fun n ->
         let h = Family.syntax_help () in
         let rec mem i =
           i + String.length n <= String.length h
           && (String.sub h i (String.length n) = n || mem (i + 1))
         in
         mem 0)
       Family.names)

(* --- per-family structural invariants ------------------------------ *)

let for_each_family f () =
  List.iter (fun fam -> f (Family.to_string fam) (topo_of fam)) families

let connected =
  for_each_family (fun label topo ->
      let g = Gentopo.as_graph topo in
      let nodes = Topology.Asgraph.nodes g in
      check_bool (label ^ " nonempty") true (nodes <> []);
      check_int
        (label ^ " single component")
        (Topology.Asgraph.num_nodes g)
        (Asn.Set.cardinal (Topology.Asgraph.connected_component g (List.hd nodes))))

let tier_partition =
  for_each_family (fun label topo ->
      (* Every AS has a tier and at least one router; ASNs are dense
         from 1. *)
      let ases = Gentopo.ases topo in
      List.iteri
        (fun i a ->
          check_int (label ^ " dense asn") (i + 1) a;
          ignore (Gentopo.tier_of topo a);
          check_bool
            (label ^ " routers positive")
            true
            (Asn.Map.find a topo.Gentopo.routers >= 1))
        ases;
      let count t =
        List.length (List.filter (fun a -> Gentopo.tier_of topo a = t) ases)
      in
      check_bool (label ^ " has tier-1") true (count Gentopo.T1 > 0);
      check_bool (label ^ " has stubs") true (count Gentopo.Stub > 0))

let relationship_duality =
  for_each_family (fun label topo ->
      List.iter
        (fun (l : Gentopo.link) ->
          let ab = Gentopo.true_rel topo l.Gentopo.a l.Gentopo.b in
          let ba = Gentopo.true_rel topo l.Gentopo.b l.Gentopo.a in
          match (ab, ba) with
          | Some `Provider, Some `Customer
          | Some `Customer, Some `Provider
          | Some `Peer, Some `Peer
          | Some `Sibling, Some `Sibling ->
              ()
          | _, _ -> Alcotest.failf "%s: asymmetric relationship" label)
        topo.Gentopo.links)

let provider_acyclic =
  for_each_family (fun label topo ->
      (* The customer→provider digraph must be a DAG for every family
         (the generator's no-dispute-wheel guarantee): walking strictly
         provider-wards must never revisit an AS. *)
      let providers = Hashtbl.create 64 in
      List.iter
        (fun (l : Gentopo.link) ->
          if l.Gentopo.rel = Gentopo.Provider then
            Hashtbl.replace providers l.Gentopo.b
              (l.Gentopo.a
              :: Option.value ~default:[] (Hashtbl.find_opt providers l.Gentopo.b)))
        topo.Gentopo.links;
      let state = Hashtbl.create 64 in
      let rec visit a =
        match Hashtbl.find_opt state a with
        | Some `Done -> ()
        | Some `Active -> Alcotest.failf "%s: provider cycle at AS %d" label a
        | None ->
            Hashtbl.replace state a `Active;
            List.iter visit (Option.value ~default:[] (Hashtbl.find_opt providers a));
            Hashtbl.replace state a `Done
      in
      List.iter visit (Gentopo.ases topo))

let igp_costs =
  for_each_family (fun label topo ->
      List.iter
        (fun a ->
          let n = Asn.Map.find a topo.Gentopo.routers in
          for r1 = 0 to n - 1 do
            check_int (label ^ " self distance") 0 (Gentopo.igp_cost topo a r1 r1);
            for r2 = 0 to n - 1 do
              check_int
                (label ^ " symmetric igp")
                (Gentopo.igp_cost topo a r1 r2)
                (Gentopo.igp_cost topo a r2 r1)
            done
          done)
        (Gentopo.ases topo))

let family_recorded =
  for_each_family (fun label topo ->
      check_string (label ^ " provenance") label
        (Family.to_string topo.Gentopo.conf.Netgen.Conf.family))

(* --- Groundtruth round-trip on every family ------------------------ *)

let groundtruth_roundtrip () =
  List.iter
    (fun fam ->
      let label = Family.to_string fam in
      let world =
        Netgen.Groundtruth.build { conf with Netgen.Conf.family = fam }
      in
      check_string (label ^ " world family") label
        (Family.to_string
           world.Netgen.Groundtruth.topo.Gentopo.conf.Netgen.Conf.family);
      check_bool (label ^ " has prefixes") true
        (world.Netgen.Groundtruth.prefix_plan <> []);
      check_bool (label ^ " has obs points") true
        (world.Netgen.Groundtruth.obs <> []);
      (* One prefix simulated end to end converges. *)
      let prefix, _, _ = List.hd world.Netgen.Groundtruth.prefix_plan in
      let st = Netgen.Groundtruth.simulate world prefix in
      check_bool (label ^ " converges") true (Simulator.Engine.converged st))
    [
      Family.Waxman Family.default_waxman;
      Family.Glp Family.default_glp;
      Family.Fattree Family.default_fattree;
    ]

(* --- determinism (QCheck) ------------------------------------------ *)

let family_gen =
  QCheck.Gen.oneofl
    [
      Family.Paper;
      Family.Waxman Family.default_waxman;
      Family.Glp Family.default_glp;
      Family.Fattree Family.default_fattree;
    ]

let arbitrary_family_seed =
  QCheck.make
    ~print:(fun (f, seed) -> Printf.sprintf "%s/seed %d" (Family.to_string f) seed)
    QCheck.Gen.(pair family_gen (int_bound 1000))

let qcheck_determinism =
  QCheck.Test.make ~name:"same seed+family, same structure_fingerprint"
    ~count:12 arbitrary_family_seed (fun (fam, seed) ->
      let build () =
        let world =
          Netgen.Groundtruth.build
            { conf with Netgen.Conf.seed; family = fam }
        in
        Simulator.Net.structure_fingerprint world.Netgen.Groundtruth.net
      in
      build () = build ())

let suite =
  [
    Alcotest.test_case "of_string round-trip" `Quick roundtrip;
    Alcotest.test_case "of_string defaults" `Quick parse_defaults;
    Alcotest.test_case "of_string rejections" `Quick parse_rejections;
    Alcotest.test_case "name and pp" `Quick name_and_pp;
    Alcotest.test_case "connected" `Quick connected;
    Alcotest.test_case "tier partition" `Quick tier_partition;
    Alcotest.test_case "relationship duality" `Quick relationship_duality;
    Alcotest.test_case "provider DAG" `Quick provider_acyclic;
    Alcotest.test_case "igp costs" `Quick igp_costs;
    Alcotest.test_case "family provenance" `Quick family_recorded;
    Alcotest.test_case "groundtruth round-trip" `Slow groundtruth_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_determinism;
  ]
