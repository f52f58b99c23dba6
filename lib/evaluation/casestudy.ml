open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Qrmodel = Asmodel.Qrmodel

type as_view = {
  asn : Asn.t;
  received : Aspath.t list;
  selected : Aspath.t list;
  quasi_routers : int;
}

type t = { prefix : Prefix.t; origin : Asn.t option; views : as_view list }

let study (model : Qrmodel.t) prefix =
  let net = model.Qrmodel.net in
  let st = Qrmodel.simulate model prefix in
  let views =
    List.filter_map
      (fun asn ->
        let nodes = Net.nodes_of_as net asn in
        let received =
          List.concat_map
            (fun n ->
              List.map
                (fun (_s, r) ->
                  Aspath.of_array (Simulator.Rattr.full_path ~own_as:asn r))
                (Engine.rib_in st n))
            nodes
          |> List.sort_uniq Aspath.compare
        in
        let selected =
          Engine.selected_paths net st asn |> List.map Aspath.of_array
        in
        if received = [] && selected = [] then None
        else
          Some
            { asn; received; selected; quasi_routers = List.length nodes })
      (Topology.Asgraph.nodes model.Qrmodel.graph)
  in
  { prefix; origin = Qrmodel.origin_of model prefix; views }

let most_diverse t n =
  List.sort
    (fun a b -> Stdlib.compare (List.length b.received) (List.length a.received))
    t.views
  |> List.filteri (fun i _ -> i < n)

let pp_view ppf v =
  Format.fprintf ppf "AS%-6d receives %d route(s), selects %d, quasi-routers %d@."
    v.asn (List.length v.received) (List.length v.selected) v.quasi_routers;
  List.iter
    (fun p ->
      Format.fprintf ppf "    %s %a@."
        (if List.exists (Aspath.equal p) v.selected then "*" else " ")
        Aspath.pp p)
    v.received

let pp ?(limit = 10) ppf t =
  Format.fprintf ppf "case study for %a%s:@." Prefix.pp t.prefix
    (match t.origin with
    | Some o -> Printf.sprintf " (originated by AS%d)" o
    | None -> "");
  Format.fprintf ppf "(%d ASes reached; '*' marks selected routes)@."
    (List.length t.views);
  List.iter (pp_view ppf) (most_diverse t limit)
