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
   reference on arbitrary generated worlds of every generator family:
   same fingerprints, same event counts, same outcomes — cold, and warm
   across a policy change.  Seeds vary the whole world (topology,
   policies, MED noise, route reflection, IGP costs), not just the
   traffic; ground truth runs iBGP with neighbour-scoped MED. *)
let arb_world_seed =
  QCheck.make ~print:(Printf.sprintf "netgen seed %d")
    QCheck.Gen.(int_bound 10_000)

let families =
  Netgen.Family.
    [
      Paper;
      Waxman default_waxman;
      Glp default_glp;
      Fattree default_fattree;
    ]

let flat_matches_reference world =
  let net = world.Netgen.Groundtruth.net in
  let plan = world.Netgen.Groundtruth.prefix_plan in
  let step = max 1 (List.length plan / 6) in
  let samples = List.filteri (fun i _ -> i mod step = 0) plan in
  let first_session kind =
    let rec find u =
      if u >= Net.node_count net then None
      else
        match
          List.find_opt
            (fun (s, _) -> Net.session_kind net u s = kind)
            (Net.sessions_of net u)
        with
        | Some (s, _) -> Some (u, s)
        | None -> find (u + 1)
    in
    find 0
  in
  let touch = Option.value ~default:(0, 0) (first_session Net.Ebgp) in
  let same rs fs =
    Engine_reference.state_fingerprint rs = Engine.state_fingerprint fs
    && Engine_reference.events rs = Engine.events fs
    && Engine_reference.converged rs = Engine.converged fs
  in
  (* One warm step on each engine after [edit], undone by [undo]. *)
  let warm_step p anchors rc fc edit undo =
    edit ();
    let rw = Engine_reference.simulate net ~from:rc ~prefix:p ~originators:anchors in
    let fw = Engine.simulate net ~from:fc ~prefix:p ~originators:anchors in
    undo ();
    Net.clear_touched net p;
    same rw fw
  in
  List.for_all
    (fun (p, _asn, anchors) ->
      let rc = Engine_reference.simulate net ~prefix:p ~originators:anchors in
      let fc = Engine.simulate net ~prefix:p ~originators:anchors in
      let u, s = touch in
      same rc fc
      && warm_step p anchors rc fc
           (fun () -> Net.set_import_med net u s p 7)
           (fun () -> Net.clear_import_med net u s p)
      (* A deny on an iBGP session re-runs route reflection and the
         IGP-cost ranking warm. *)
      && (match first_session Net.Ibgp with
         | None -> true
         | Some (u, s) ->
             warm_step p anchors rc fc
               (fun () -> Net.deny_export net u s p)
               (fun () -> Net.allow_export net u s p)))
    samples

let prop_flat_matches_reference =
  QCheck.Test.make ~name:"flat engine = reference engine (cold + warm)"
    ~count:15 arb_world_seed (fun seed ->
      List.for_all
        (fun family ->
          let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = seed; family } in
          flat_matches_reference (Netgen.Groundtruth.build conf))
        families)

(* Refined quasi-router models carry what ground-truth worlds do not:
   the refiner's duplicates, whose sessions mirror their original's,
   per-prefix import MED rules and export denies.  [refined_model]
   refines the initial model of a tiny world of [family] against that
   world's own observations. *)
let refined_model family seed =
  let world =
    Netgen.Groundtruth.build { Netgen.Conf.tiny with Netgen.Conf.family; seed }
  in
  let prepared = Core.prepare (Netgen.Groundtruth.observe world) in
  let model = Asmodel.Qrmodel.initial prepared.Core.graph in
  (Refine.Refiner.refine model ~training:prepared.Core.data).Refine.Refiner.model

(* Every node's RIB-In and best route, field by field, so the slot
   routes the flat engine builds from their sessions must equal the
   routes the reference engine stores. *)
let same_views net rs fs =
  Engine_reference.state_fingerprint rs = Engine.state_fingerprint fs
  && Engine_reference.events rs = Engine.events fs
  && Engine_reference.converged rs = Engine.converged fs
  && List.for_all
       (fun n ->
         Engine_reference.best rs n = Engine.best fs n
         && Engine_reference.rib_in rs n = Engine.rib_in fs n)
       (List.init (Net.node_count net) Fun.id)

(* On the refined models of each family and three seeds, sampled
   prefixes run cold on both engines, then resume at the same
   generation after a MED rule and after a deny on the session a node's
   best route arrived on, then resume across a duplication of that
   node. *)
let test_refined_matches_reference () =
  let rules = ref 0 and denies = ref 0 in
  List.iter
    (fun (family, seed) ->
      let m = refined_model family seed in
      let net = m.Asmodel.Qrmodel.net in
      let name = Printf.sprintf "%s seed %d" (Netgen.Family.to_string family) seed in
      let check what ok =
        Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true ok
      in
      check "the refiner duplicated quasi-routers" (Net.node_count net
        > Topology.Asgraph.num_nodes m.Asmodel.Qrmodel.graph);
      let prefixes = List.map fst m.Asmodel.Qrmodel.prefixes in
      List.iter
        (fun p ->
          Net.iter_prefix_policies net p (fun _ _ ~deny ~med ~lpref:_ ->
              if deny then incr denies;
              if med <> min_int then incr rules))
        prefixes;
      let step = max 1 (List.length prefixes / 4) in
      let samples = List.filteri (fun i _ -> i mod step = 0) prefixes in
      let runs =
        List.map
          (fun p ->
            let originators = Asmodel.Qrmodel.originators m p in
            let rc = Engine_reference.simulate net ~prefix:p ~originators in
            let fc = Engine.simulate net ~prefix:p ~originators in
            check "cold" (same_views net rc fc);
            (p, originators, rc, fc))
          samples
      in
      let resume (p, originators, rc, fc) =
        let rw = Engine_reference.simulate net ~from:rc ~prefix:p ~originators in
        let fw = Engine.simulate net ~from:fc ~prefix:p ~originators in
        Net.clear_touched net p;
        (rw, fw)
      in
      (* The last node with a learned best route, and that route. *)
      let learned (_, _, _, fc) =
        List.find_map
          (fun u ->
            match Engine.best fc u with
            | Some r when r.Rattr.from_session >= 0 -> Some (u, r)
            | _ -> None)
          (List.rev (List.init (Net.node_count net) Fun.id))
      in
      List.iter
        (fun ((p, _, _, _) as run) ->
          match learned run with
          | None -> ()
          | Some (u, r) ->
              let s = r.Rattr.from_session in
              Net.set_import_med net u s p 7;
              let rw, fw = resume run in
              check "resume after a MED rule" (same_views net rw fw);
              Net.clear_import_med net u s p;
              let back = Net.session_reverse net u s in
              Net.deny_export net r.Rattr.from_node back p;
              let rw, fw = resume run in
              check "resume after a deny" (same_views net rw fw);
              Net.allow_export net r.Rattr.from_node back p;
              Net.clear_touched net p)
        runs;
      (match Option.bind (List.nth_opt runs 0) learned with
      | Some (u, _) -> ignore (Net.duplicate_node net u)
      | None -> ignore (Net.duplicate_node net 0));
      List.iter
        (fun run ->
          let rw, fw = resume run in
          check "resume across a duplication" (same_views net rw fw))
        runs)
    (List.concat_map (fun seed -> List.map (fun f -> (f, seed)) families) [ 1; 2; 3 ]);
  Alcotest.(check bool) "the models carry MED rules" true (!rules > 0);
  Alcotest.(check bool) "the models carry denies" true (!denies > 0)

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
    Alcotest.test_case "refined models: flat = reference" `Quick
      test_refined_matches_reference;
    QCheck_alcotest.to_alcotest prop_flat_matches_reference;
  ]
