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

(* One {!Simulator.Warm.converge} batch that raises its first failure. *)
let converge table t ~originators prefixes =
  let batch = Simulator.Warm.converge table t.net ~originators prefixes in
  ( List.map
      (function
        | p, Ok st -> (p, st) | _, Error e -> raise e.Simulator.Pool.exn)
      batch.Simulator.Warm.results,
    batch )

let simulate_all t =
  let states, batch =
    converge (Hashtbl.create 64) t ~originators:(originators t)
      (List.map fst t.prefixes)
  in
  (states, batch.Simulator.Warm.pool)

let resimulate t states =
  let table = Hashtbl.create (max 16 (List.length states)) in
  List.iter (fun (p, st) -> Hashtbl.replace table p st) states;
  converge table t
    ~originators:(fun p -> Engine.originating (Hashtbl.find table p))
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
