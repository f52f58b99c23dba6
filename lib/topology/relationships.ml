open Bgp

type kind = Customer_of | Provider_of | Peer | Sibling | Unknown

let flip = function
  | Customer_of -> Provider_of
  | Provider_of -> Customer_of
  | (Peer | Sibling | Unknown) as k -> k

(* Per-edge vote record.  The key is the ordered pair (a, b) with a < b;
   [votes_ab] counts votes that a provides transit for b. *)
type votes = {
  mutable votes_ab : int;
  mutable votes_ba : int;
  mutable appearances : int;
  mutable at_top : int;
}

type t = { rels : (Asn.t * Asn.t, kind) Hashtbl.t }

let edge_key a b = if a < b then (a, b) else (b, a)

let top_index g arr =
  let n = Array.length arr in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if Asgraph.degree g arr.(i) > Asgraph.degree g arr.(!best) then best := i
  done;
  !best

let vote table g path =
  let arr = Aspath.to_array path in
  let n = Array.length arr in
  if n >= 2 then begin
    let j = top_index g arr in
    for i = 0 to n - 2 do
      let key = edge_key arr.(i) arr.(i + 1) in
      let v =
        match Hashtbl.find_opt table key with
        | Some v -> v
        | None ->
            let v = { votes_ab = 0; votes_ba = 0; appearances = 0; at_top = 0 } in
            Hashtbl.add table key v;
            v
      in
      v.appearances <- v.appearances + 1;
      if i = j || i + 1 = j then v.at_top <- v.at_top + 1;
      (* Which endpoint provides transit: on the observation side of the
         top (i < j) the AS closer to the top is arr.(i+1); on the origin
         side (i >= j) it is arr.(i). *)
      let provider = if i < j then arr.(i + 1) else arr.(i) in
      let a, _ = key in
      if provider = a then v.votes_ab <- v.votes_ab + 1
      else v.votes_ba <- v.votes_ba + 1
    done
  end

let infer ?(level1 = Asn.Set.empty) ?(sibling_ratio = 0.5)
    ?(peer_degree_ratio = 10.0) g paths =
  let table = Hashtbl.create 4096 in
  List.iter (fun p -> vote table g p) paths;
  let rels = Hashtbl.create 4096 in
  (* Every edge of the graph gets a classification; edges that appear in
     no path (possible when callers pass a richer graph) stay Unknown. *)
  Asgraph.fold_edges
    (fun a b () ->
      let key = edge_key a b in
      let kind =
        if Asn.Set.mem a level1 && Asn.Set.mem b level1 then Peer
        else
          match Hashtbl.find_opt table key with
          | None -> Unknown
          | Some v ->
              let da = float_of_int (Asgraph.degree g a) in
              let db = float_of_int (Asgraph.degree g b) in
              let ratio = if da > db then da /. db else db /. da in
              let lo = min v.votes_ab v.votes_ba in
              let hi = max v.votes_ab v.votes_ba in
              if
                v.at_top = v.appearances
                && ratio <= peer_degree_ratio
                && (lo > 0 || hi <= 1)
              then Peer
              else if lo > 0 && float_of_int lo /. float_of_int hi >= sibling_ratio
              then Sibling
              else if v.votes_ab >= v.votes_ba then Provider_of
                (* a provides for b *)
              else Customer_of
      in
      Hashtbl.replace rels key kind)
    g ();
  { rels }

let rel t a b =
  let key = edge_key a b in
  match Hashtbl.find_opt t.rels key with
  | None -> Unknown
  | Some k ->
      (* Stored kind is a's relationship to b when a < b. *)
      let a', _ = key in
      (match k with
      | Provider_of -> if a = a' then Provider_of else Customer_of
      | Customer_of -> if a = a' then Customer_of else Provider_of
      | (Peer | Sibling | Unknown) as s -> s)

type counts = {
  customer_provider : int;
  peer : int;
  sibling : int;
  unknown : int;
}

let counts t =
  Hashtbl.fold
    (fun _ k acc ->
      match k with
      | Customer_of | Provider_of ->
          { acc with customer_provider = acc.customer_provider + 1 }
      | Peer -> { acc with peer = acc.peer + 1 }
      | Sibling -> { acc with sibling = acc.sibling + 1 }
      | Unknown -> { acc with unknown = acc.unknown + 1 })
    t.rels
    { customer_provider = 0; peer = 0; sibling = 0; unknown = 0 }

let pp_counts ppf c =
  Format.fprintf ppf
    "customer-provider: %d, peering: %d, sibling: %d, unknown: %d"
    c.customer_provider c.peer c.sibling c.unknown

let valley_free t path =
  let arr = Aspath.to_array path in
  let n = Array.length arr in
  (* Walk in announcement order: from origin (index n-1) towards the
     observer (index 0).  State [`Up] allows climbing; after a peer edge
     or the first descent only [`Down] steps are allowed. *)
  let rec walk i state =
    if i <= 0 then true
    else
      let from_as = arr.(i) and to_as = arr.(i - 1) in
      match (rel t from_as to_as, state) with
      | Customer_of, `Up -> walk (i - 1) `Up
      | Customer_of, `Down -> false
      | Peer, `Up -> walk (i - 1) `Down
      | Peer, `Down -> false
      | Provider_of, (`Up | `Down) -> walk (i - 1) `Down
      | (Sibling | Unknown), state -> walk (i - 1) state
  in
  if n <= 1 then true else walk (n - 1) `Up
