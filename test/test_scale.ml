(* Scale-path coverage: deterministic large-world generation, the
   sized-conf guard rails, and QCheck equality of the flat-slab engine
   against the frozen reference implementation (cold and warm). *)

module Net = Simulator.Net
module Engine = Simulator.Engine
module Rattr = Simulator.Rattr

let build_sized ~ases ~seed =
  Netgen.Groundtruth.build
    { (Netgen.Conf.sized ases) with Netgen.Conf.seed = seed }

(* Same seed, same conf ⇒ byte-for-byte the same world: structure
   fingerprint and prefix plan both match across two independent
   builds.  This is what lets BENCH.json SCALE numbers and the CI gate
   talk about "the" 5k world. *)
let test_sized_deterministic () =
  let ases = 5000 in
  let w1 = build_sized ~ases ~seed:42 in
  let w2 = build_sized ~ases ~seed:42 in
  let fp1 = Net.structure_fingerprint w1.Netgen.Groundtruth.net in
  let fp2 = Net.structure_fingerprint w2.Netgen.Groundtruth.net in
  Alcotest.(check bool) "same structure fingerprint" true (fp1 = fp2);
  Alcotest.(check bool)
    "same prefix plan" true
    (w1.Netgen.Groundtruth.prefix_plan = w2.Netgen.Groundtruth.prefix_plan);
  (* Paper-shaped scaling: ~2 routers per AS, prefix universe bounded
     but at least one prefix per originating AS tier. *)
  let nodes = Net.node_count w1.Netgen.Groundtruth.net in
  Alcotest.(check bool)
    "node count is ASes..3*ASes" true
    (nodes >= ases && nodes <= 3 * ases);
  Alcotest.(check bool)
    "plan has thousands of prefixes" true
    (List.length w1.Netgen.Groundtruth.prefix_plan >= ases / 2)

let test_sized_rejects_small () =
  Alcotest.check_raises "below 50 ASes"
    (Invalid_argument "Conf.sized: need at least 50 ASes") (fun () ->
      ignore (Netgen.Conf.sized 49))

(* The flat engine must be observationally identical to the frozen
   reference on arbitrary generated worlds: same fingerprints, same
   event counts, same outcomes — cold, and warm across a policy
   change.  Seeds vary the whole world (topology, policies, MED noise,
   route reflection), not just the traffic. *)
let arb_world_seed =
  QCheck.make ~print:(Printf.sprintf "netgen seed %d")
    QCheck.Gen.(int_bound 10_000)

let prop_flat_matches_reference =
  QCheck.Test.make ~name:"flat engine = reference engine (cold + warm)"
    ~count:15 arb_world_seed (fun seed ->
      let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = seed } in
      let world = Netgen.Groundtruth.build conf in
      let net = world.Netgen.Groundtruth.net in
      let plan = world.Netgen.Groundtruth.prefix_plan in
      let step = max 1 (List.length plan / 6) in
      let samples = List.filteri (fun i _ -> i mod step = 0) plan in
      let touch =
        let rec find u =
          if u >= Net.node_count net then 0
          else if Net.session_count_of net u > 0 then u
          else find (u + 1)
        in
        find 0
      in
      List.for_all
        (fun (p, _asn, anchors) ->
          let rc =
            Engine_reference.simulate net ~prefix:p ~originators:anchors
          in
          let fc = Engine.simulate net ~prefix:p ~originators:anchors in
          let cold_ok =
            Engine_reference.state_fingerprint rc
            = Engine.state_fingerprint fc
            && Engine_reference.events rc = Engine.events fc
            && Engine_reference.converged rc = Engine.converged fc
          in
          Net.set_import_med net touch 0 p 7;
          let rw =
            Engine_reference.simulate net ~from:rc ~prefix:p
              ~originators:anchors
          in
          let fw =
            Engine.simulate net ~from:fc ~prefix:p ~originators:anchors
          in
          Net.clear_import_med net touch 0 p;
          Net.clear_touched net p;
          let warm_ok =
            Engine_reference.state_fingerprint rw
            = Engine.state_fingerprint fw
            && Engine_reference.events rw = Engine.events fw
          in
          cold_ok && warm_ok)
        samples)

(* The fold/iter candidate walks agree with the allocating list
   variant at every node of a converged state. *)
let test_candidates_fold_iter () =
  let world = Netgen.Groundtruth.build Netgen.Conf.tiny in
  let net = world.Netgen.Groundtruth.net in
  let p, _asn, anchors = List.hd world.Netgen.Groundtruth.prefix_plan in
  let st = Engine.simulate net ~prefix:p ~originators:anchors in
  for n = 0 to Net.node_count net - 1 do
    let listed = Engine.candidates st net n in
    let folded =
      List.rev
        (Engine.fold_candidates st net n ~init:[] ~f:(fun acc r -> r :: acc))
    in
    let iterated = ref [] in
    Engine.iter_candidates st net n (fun r -> iterated := r :: !iterated);
    Alcotest.(check int)
      (Printf.sprintf "fold length at node %d" n)
      (List.length listed) (List.length folded);
    Alcotest.(check bool)
      (Printf.sprintf "fold order at node %d" n)
      true
      (List.for_all2 (fun a b -> Rattr.same_route a b) listed folded);
    Alcotest.(check bool)
      (Printf.sprintf "iter order at node %d" n)
      true
      (List.for_all2 (fun a b -> Rattr.same_route a b) listed
         (List.rev !iterated))
  done

let suite =
  [
    Alcotest.test_case "sized 5k world is deterministic" `Slow
      test_sized_deterministic;
    Alcotest.test_case "sized rejects tiny AS counts" `Quick
      test_sized_rejects_small;
    Alcotest.test_case "candidates fold/iter match list" `Quick
      test_candidates_fold_iter;
    QCheck_alcotest.to_alcotest prop_flat_matches_reference;
  ]
