open Bgp

type t = { adj : Asn.Set.t Asn.Map.t; nedges : int }

let empty = { adj = Asn.Map.empty; nedges = 0 }

let mem_node g a = Asn.Map.mem a g.adj

let neighbors g a =
  match Asn.Map.find_opt a g.adj with
  | Some s -> s
  | None -> Asn.Set.empty

let mem_edge g a b = Asn.Set.mem b (neighbors g a)

let add_node g a =
  if mem_node g a then g else { g with adj = Asn.Map.add a Asn.Set.empty g.adj }

let add_edge g a b =
  if a = b then add_node g a
  else if mem_edge g a b then g
  else
    let adj =
      g.adj
      |> Asn.Map.add a (Asn.Set.add b (neighbors g a))
      |> Asn.Map.add b (Asn.Set.add a (neighbors g b))
    in
    { adj; nedges = g.nedges + 1 }

let remove_edge g a b =
  if not (mem_edge g a b) then g
  else
    let adj =
      g.adj
      |> Asn.Map.add a (Asn.Set.remove b (neighbors g a))
      |> Asn.Map.add b (Asn.Set.remove a (neighbors g b))
    in
    { adj; nedges = g.nedges - 1 }

let remove_node g a =
  if not (mem_node g a) then g
  else
    let nbrs = neighbors g a in
    let g = Asn.Set.fold (fun b acc -> remove_edge acc a b) nbrs g in
    { g with adj = Asn.Map.remove a g.adj }

let degree g a = Asn.Set.cardinal (neighbors g a)

let nodes g = Asn.Map.fold (fun a _ acc -> a :: acc) g.adj [] |> List.rev

let node_set g = Asn.Map.fold (fun a _ acc -> Asn.Set.add a acc) g.adj Asn.Set.empty

let num_nodes g = Asn.Map.cardinal g.adj

let num_edges g = g.nedges

let fold_nodes f g init = Asn.Map.fold (fun a _ acc -> f a acc) g.adj init

let fold_edges f g init =
  Asn.Map.fold
    (fun a nbrs acc ->
      Asn.Set.fold (fun b acc -> if a < b then f a b acc else acc) nbrs acc)
    g.adj init

let edges g = fold_edges (fun a b acc -> (a, b) :: acc) g [] |> List.rev

let of_edges es = List.fold_left (fun g (a, b) -> add_edge g a b) empty es

let is_clique g set =
  Asn.Set.for_all
    (fun a ->
      Asn.Set.for_all (fun b -> a = b || mem_edge g a b) set)
    set

let connected_component g start =
  if not (mem_node g start) then Asn.Set.empty
  else
    let rec bfs frontier seen =
      if Asn.Set.is_empty frontier then seen
      else
        let next =
          Asn.Set.fold
            (fun a acc -> Asn.Set.union acc (Asn.Set.diff (neighbors g a) seen))
            frontier Asn.Set.empty
        in
        bfs next (Asn.Set.union seen next)
    in
    bfs (Asn.Set.singleton start) (Asn.Set.singleton start)

let pp_stats ppf g =
  let max_deg = fold_nodes (fun a m -> max m (degree g a)) g 0 in
  Format.fprintf ppf "%d nodes, %d edges, max degree %d" (num_nodes g)
    (num_edges g) max_deg
