(* What-if study: de-peering two ASes (paper §1's motivating question).

   Builds a refined AS-routing model from observed dumps, then removes
   the link between the two busiest adjacent transit ASes and reports
   which prefixes shift paths and which ASes lose reachability.  This is
   exactly the workflow the paper proposes the model for: predicting the
   effect of a change *before* making it ("tweak and pray" no more).

   Run with: dune exec examples/what_if.exe *)


let () =
  let conf = { (Netgen.Conf.scaled 0.3) with Netgen.Conf.seed = 23 } in
  Format.printf "Generating world and observing dumps...@.";
  let world = Netgen.Groundtruth.build conf in
  let data = Netgen.Groundtruth.observe world in

  Format.printf "Building the refined model from all observation points...@.";
  let prepared = Core.prepare data in
  let result = Core.build prepared ~training:prepared.Core.data in
  Format.printf "training: %d/%d paths matched in %d iterations@."
    result.Refine.Refiner.matched result.Refine.Refiner.total
    result.Refine.Refiner.iterations;
  let model = result.Refine.Refiner.model in

  (* Pick the busiest edge of the core graph: the pair of adjacent ASes
     with the highest combined degree. *)
  let graph = prepared.Core.graph in
  let a, b =
    List.fold_left
      (fun (ba, bb) (x, y) ->
        let score e f =
          Topology.Asgraph.degree graph e + Topology.Asgraph.degree graph f
        in
        if score x y > score ba bb then (x, y) else (ba, bb))
      (List.hd (Topology.Asgraph.edges graph))
      (Topology.Asgraph.edges graph)
  in
  Format.printf "@.De-peering AS%d -- AS%d (busiest core link)...@." a b;

  let states, _ = Asmodel.Qrmodel.simulate_all model in
  let half_sessions, diff = Asmodel.Whatif.eval model states a b in
  Format.printf "disabled %d half-sessions@." half_sessions;
  Asmodel.Whatif.pp_diff Format.std_formatter diff;

  (* The what-if lifted its denies: a fresh simulation of the model
     must reproduce every cached state. *)
  let net = model.Asmodel.Qrmodel.net in
  let restored, _ = Asmodel.Qrmodel.simulate_all model in
  let differ =
    List.fold_left2
      (fun n (_, before) (_, after) ->
        match Asmodel.Whatif.changed_ases net (Some before) after with
        | [], _ -> n
        | _ -> n + 1)
      0 states restored
  in
  Format.printf
    "@.after re-enabling the link: %d prefixes differ (the revert lifts \
     only the@.denies the disable placed, so refinement filters on that \
     link survive@.and this is 0).@."
    differ
