(* Tests for Topology.Asgraph. *)

open Bgp

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let g = Topology.Asgraph.of_edges [ (1, 2); (2, 3); (3, 1); (3, 4) ]

let construction () =
  check_int "nodes" 4 (Topology.Asgraph.num_nodes g);
  check_int "edges" 4 (Topology.Asgraph.num_edges g);
  check_bool "edge both ways" true
    (Topology.Asgraph.mem_edge g 1 2 && Topology.Asgraph.mem_edge g 2 1);
  check_bool "non-edge" false (Topology.Asgraph.mem_edge g 1 4);
  check_int "degree of 3" 3 (Topology.Asgraph.degree g 3);
  check_int "degree of unknown" 0 (Topology.Asgraph.degree g 99)

let idempotent_adds () =
  let g' = Topology.Asgraph.add_edge g 1 2 in
  check_int "re-add edge" 4 (Topology.Asgraph.num_edges g');
  let g'' = Topology.Asgraph.add_edge g' 5 5 in
  check_int "self loop ignored" 4 (Topology.Asgraph.num_edges g'');
  check_bool "self-loop node added" true (Topology.Asgraph.mem_node g'' 5)

let removal () =
  let g' = Topology.Asgraph.remove_node g 3 in
  check_int "nodes after removal" 3 (Topology.Asgraph.num_nodes g');
  check_int "edges after removal" 1 (Topology.Asgraph.num_edges g');
  check_bool "node 4 isolated" true (Topology.Asgraph.degree g' 4 = 0);
  let g'' = Topology.Asgraph.remove_edge g 1 2 in
  check_int "edge removal" 3 (Topology.Asgraph.num_edges g'');
  check_bool "persistence: original untouched" true
    (Topology.Asgraph.mem_edge g 1 2)

let edges_listing () =
  let edges = Topology.Asgraph.edges g in
  check_int "each edge once" 4 (List.length edges);
  check_bool "ordered pairs" true (List.for_all (fun (a, b) -> a < b) edges)

let cliques () =
  check_bool "triangle" true
    (Topology.Asgraph.is_clique g (Asn.Set.of_list [ 1; 2; 3 ]));
  check_bool "not a clique" false
    (Topology.Asgraph.is_clique g (Asn.Set.of_list [ 1; 2; 4 ]));
  check_bool "singleton" true (Topology.Asgraph.is_clique g (Asn.Set.singleton 1));
  check_bool "empty" true (Topology.Asgraph.is_clique g Asn.Set.empty)

let components () =
  let g2 = Topology.Asgraph.add_edge g 10 11 in
  let c = Topology.Asgraph.connected_component g2 1 in
  check_bool "component of 1" true (Asn.Set.equal c (Asn.Set.of_list [ 1; 2; 3; 4 ]));
  let c10 = Topology.Asgraph.connected_component g2 10 in
  check_bool "component of 10" true (Asn.Set.equal c10 (Asn.Set.of_list [ 10; 11 ]));
  check_bool "component of missing node" true
    (Asn.Set.is_empty (Topology.Asgraph.connected_component g2 42))

let gen_edges =
  QCheck.Gen.(list_size (int_bound 40) (pair (int_range 1 15) (int_range 1 15)))

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2 * edges" ~count:200
    (QCheck.make gen_edges)
    (fun edges ->
      let g = Topology.Asgraph.of_edges edges in
      let sum =
        Topology.Asgraph.fold_nodes
          (fun a acc -> acc + Topology.Asgraph.degree g a)
          g 0
      in
      sum = 2 * Topology.Asgraph.num_edges g)

let prop_edges_symmetric =
  QCheck.Test.make ~name:"neighbors symmetric" ~count:200 (QCheck.make gen_edges)
    (fun edges ->
      let g = Topology.Asgraph.of_edges edges in
      Topology.Asgraph.fold_nodes
        (fun a ok ->
          ok
          && Asn.Set.for_all
               (fun b -> Asn.Set.mem a (Topology.Asgraph.neighbors g b))
               (Topology.Asgraph.neighbors g a))
        g true)

let suite =
  [
    Alcotest.test_case "construction" `Quick construction;
    Alcotest.test_case "idempotent adds" `Quick idempotent_adds;
    Alcotest.test_case "removal" `Quick removal;
    Alcotest.test_case "edges listing" `Quick edges_listing;
    Alcotest.test_case "cliques" `Quick cliques;
    Alcotest.test_case "components" `Quick components;
    QCheck_alcotest.to_alcotest prop_degree_sum;
    QCheck_alcotest.to_alcotest prop_edges_symmetric;
  ]
