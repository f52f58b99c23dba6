open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine

type t = {
  net : Net.t;
  graph : Topology.Asgraph.t;
  prefixes : (Prefix.t * Asn.t) list;
}

let initial graph =
  let net = Net.create () in
  let node_of = Hashtbl.create 4096 in
  List.iter
    (fun asn ->
      let id = Net.add_node net ~asn ~ip:(Asn.router_ip asn 0) in
      Hashtbl.add node_of asn id)
    (Topology.Asgraph.nodes graph);
  Topology.Asgraph.fold_edges
    (fun a b () ->
      ignore
        (Net.connect net (Hashtbl.find node_of a) (Hashtbl.find node_of b)))
    graph ();
  let prefixes =
    List.map (fun asn -> (Asn.origin_prefix asn, asn)) (Topology.Asgraph.nodes graph)
  in
  { net; graph; prefixes }

let origin_of t p =
  (* Fast path: model prefixes follow the canonical ASN scheme. *)
  match Asn.of_origin_prefix p with
  | Some asn
    when Topology.Asgraph.mem_node t.graph asn
         && Prefix.equal p (Asn.origin_prefix asn) ->
      Some asn
  | Some _ | None ->
      List.find_map
        (fun (p', asn) -> if Prefix.equal p p' then Some asn else None)
        t.prefixes

let originators t p =
  match origin_of t p with
  | Some asn -> Net.nodes_of_as t.net asn
  | None -> []

let simulate ?max_events t p =
  Engine.simulate ?max_events t.net ~prefix:p
    ~originators:(originators t p)

let simulate_all t =
  let prefixes = List.map fst t.prefixes in
  let states, stats = Simulator.Pool.simulate ~sim:(simulate t) prefixes in
  (* The states reflect every policy edit made so far: drain the touched
     sets so the first warm resume replays only later edits. *)
  List.iter (Net.clear_touched t.net) prefixes;
  (states, stats)

let resimulate t states =
  let from = Prefix.Table.create (max 16 (List.length states)) in
  List.iter (fun (p, st) -> Prefix.Table.replace from p st) states;
  Simulator.Pool.simulate
    ~sim:(fun p ->
      let from = Prefix.Table.find from p in
      Simulator.Warm.simulate ~from t.net ~prefix:p
        ~originators:(Engine.originating from))
    (List.map fst states)

let quasi_router_count t asn = List.length (Net.nodes_of_as t.net asn)

let quasi_router_histogram t =
  let hist = Hashtbl.create 16 in
  List.iter
    (fun asn ->
      let k = quasi_router_count t asn in
      Hashtbl.replace hist k
        (1 + Option.value ~default:0 (Hashtbl.find_opt hist k)))
    (Topology.Asgraph.nodes t.graph);
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) hist []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let total_quasi_routers t = Net.node_count t.net

let pp_summary ppf t =
  Format.fprintf ppf "model: %a; graph: %a; %d prefixes" Net.pp_summary t.net
    Topology.Asgraph.pp_stats t.graph
    (List.length t.prefixes)
