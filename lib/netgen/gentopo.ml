open Bgp

type tier = T1 | T2 | T3 | Stub

type rel = Provider | Peer | Sibling

type link = { a : Asn.t; a_router : int; b : Asn.t; b_router : int; rel : rel }

type t = {
  conf : Conf.t;
  tiers : tier Asn.Map.t;
  routers : int Asn.Map.t;
  links : link list;
  coords : (int * int) array Asn.Map.t;
}

let rand_range rng (lo, hi) = lo + Random.State.int rng (hi - lo + 1)

(* Weighted pick without replacement is not needed; duplicates are
   filtered by the caller.  Weights favour already-popular providers to
   produce the Internet's heavy-tailed degrees. *)
let weighted_pick rng weights candidates =
  let total = List.fold_left (fun acc c -> acc + weights c) 0 candidates in
  if total = 0 then None
  else
    let x = Random.State.int rng total in
    let rec go acc = function
      | [] -> None
      | c :: rest ->
          let acc = acc + weights c in
          if x < acc then Some c else go acc rest
    in
    go 0 candidates

(* Float-weighted variant for the preferential-attachment families. *)
let weighted_pick_float rng weights candidates =
  let total = List.fold_left (fun acc c -> acc +. weights c) 0.0 candidates in
  if total <= 0.0 then None
  else
    let x = Random.State.float rng total in
    let rec go acc = function
      | [] -> None
      | [ c ] -> Some c
      | c :: rest ->
          let acc = acc +. weights c in
          if x < acc then Some c else go acc rest
    in
    go 0.0 candidates

let generate_paper (conf : Conf.t) rng =
  let next_asn = ref 0 in
  let fresh_tier n tier acc =
    let rec loop i acc =
      if i >= n then acc
      else begin
        incr next_asn;
        loop (i + 1) (Asn.Map.add !next_asn tier acc)
      end
    in
    loop 0 acc
  in
  let tiers =
    Asn.Map.empty
    |> fresh_tier conf.Conf.n_tier1 T1
    |> fresh_tier conf.Conf.n_tier2 T2
    |> fresh_tier conf.Conf.n_tier3 T3
    |> fresh_tier conf.Conf.n_stub Stub
  in
  let of_tier t =
    Asn.Map.fold (fun a t' acc -> if t' = t then a :: acc else acc) tiers []
    |> List.rev
  in
  let tier1 = of_tier T1 and tier2 = of_tier T2 and tier3 = of_tier T3 in
  let stubs = of_tier Stub in
  let routers =
    Asn.Map.mapi
      (fun _ t ->
        match t with
        | T1 -> rand_range rng conf.Conf.routers_tier1
        | T2 -> rand_range rng conf.Conf.routers_tier2
        | T3 -> rand_range rng conf.Conf.routers_tier3
        | Stub -> rand_range rng conf.Conf.routers_stub)
      tiers
  in
  let degree = Hashtbl.create 1024 in
  let deg a = Option.value ~default:0 (Hashtbl.find_opt degree a) in
  let bump a = Hashtbl.replace degree a (deg a + 1) in
  let links = ref [] in
  let used_pairs = Hashtbl.create 4096 in
  (* One router-level link; remembers the router pair so parallel links
     never reuse it (the simulator allows one session per node pair). *)
  let add_link a b rel =
    let ra_max = Asn.Map.find a routers and rb_max = Asn.Map.find b routers in
    let rec pick tries =
      if tries = 0 then None
      else
        let ra = Random.State.int rng ra_max
        and rb = Random.State.int rng rb_max in
        if Hashtbl.mem used_pairs (a, ra, b, rb) then pick (tries - 1)
        else Some (ra, rb)
    in
    match pick 8 with
    | None -> ()
    | Some (ra, rb) ->
        Hashtbl.replace used_pairs (a, ra, b, rb) ();
        Hashtbl.replace used_pairs (b, rb, a, ra) ();
        links := { a; a_router = ra; b; b_router = rb; rel } :: !links;
        bump a;
        bump b
  in
  let adjacent = Hashtbl.create 4096 in
  let mark_adj a b =
    Hashtbl.replace adjacent (a, b) ();
    Hashtbl.replace adjacent (b, a) ()
  in
  let is_adj a b = Hashtbl.mem adjacent (a, b) in
  let add_adjacency a b rel =
    if a <> b && not (is_adj a b) then begin
      mark_adj a b;
      add_link a b rel;
      if Random.State.float rng 1.0 < conf.Conf.parallel_link_prob then
        add_link a b rel
    end
  in
  (* Tier-1 clique: all peerings. *)
  List.iter
    (fun a -> List.iter (fun b -> if a < b then add_adjacency a b Peer) tier1)
    tier1;
  let maybe_sibling rel =
    match rel with
    | Provider when Random.State.float rng 1.0 < conf.Conf.sibling_frac ->
        Sibling
    | rel -> rel
  in
  let connect_customer asn ~providers ~count =
    let weights p = 1 + deg p in
    let rec go chosen n =
      if n = 0 then ()
      else
        match
          weighted_pick rng weights
            (List.filter (fun p -> not (List.mem p chosen)) providers)
        with
        | None -> ()
        | Some p ->
            add_adjacency p asn (maybe_sibling Provider);
            go (p :: chosen) (n - 1)
    in
    go [] count
  in
  (* Tier-2: 2-4 tier-1 providers, peerings among themselves. *)
  List.iter
    (fun asn -> connect_customer asn ~providers:tier1 ~count:(2 + Random.State.int rng 3))
    tier2;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b && Random.State.float rng 1.0 < conf.Conf.tier2_peer_prob
          then add_adjacency a b Peer)
        tier2)
    tier2;
  (* Tier-3: 1-3 providers drawn mostly from tier-2, peerings among
     themselves. *)
  List.iter
    (fun asn ->
      let providers =
        if Random.State.float rng 1.0 < 0.15 then tier1 @ tier2 else tier2
      in
      connect_customer asn ~providers ~count:(2 + Random.State.int rng 3))
    tier3;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b && Random.State.float rng 1.0 < conf.Conf.tier3_peer_prob
          then add_adjacency a b Peer)
        tier3)
    tier3;
  (* Stubs: single-homed fraction gets exactly one provider, the rest
     two or three. *)
  List.iter
    (fun asn ->
      let count =
        if Random.State.float rng 1.0 < conf.Conf.stub_single_homed_frac then 1
        else 2 + Random.State.int rng 3
      in
      connect_customer asn ~providers:(tier2 @ tier3) ~count)
    stubs;
  let coords =
    Asn.Map.map
      (fun n ->
        Array.init n (fun _ ->
            (Random.State.int rng 100, Random.State.int rng 100)))
      routers
  in
  { conf; tiers; routers; links = List.rev !links; coords }

(* ------------------------------------------------------------------ *)
(* Shared router-level realization for the non-paper families.

   A family decides the AS-level structure (tiers + oriented,
   relationship-labelled adjacencies, one entry per unordered pair,
   [a] the provider side); realization assigns border-router counts
   from the family-agnostic Conf ranges, picks distinct router pairs
   per adjacency, duplicates adjacencies with [parallel_link_prob]
   (multiple peering points, exactly like the paper family) and places
   router coordinates for the Manhattan IGP metric. *)
let realize (conf : Conf.t) rng ~tiers ~edges =
  let routers =
    Asn.Map.mapi
      (fun _ t ->
        match t with
        | T1 -> rand_range rng conf.Conf.routers_tier1
        | T2 -> rand_range rng conf.Conf.routers_tier2
        | T3 -> rand_range rng conf.Conf.routers_tier3
        | Stub -> rand_range rng conf.Conf.routers_stub)
      tiers
  in
  let links = ref [] in
  let used_pairs = Hashtbl.create 4096 in
  let add_link a b rel =
    let ra_max = Asn.Map.find a routers and rb_max = Asn.Map.find b routers in
    let rec pick tries =
      if tries = 0 then None
      else
        let ra = Random.State.int rng ra_max
        and rb = Random.State.int rng rb_max in
        if Hashtbl.mem used_pairs (a, ra, b, rb) then pick (tries - 1)
        else Some (ra, rb)
    in
    match pick 8 with
    | None -> ()
    | Some (ra, rb) ->
        Hashtbl.replace used_pairs (a, ra, b, rb) ();
        Hashtbl.replace used_pairs (b, rb, a, ra) ();
        links := { a; a_router = ra; b; b_router = rb; rel } :: !links
  in
  List.iter
    (fun (a, b, rel) ->
      add_link a b rel;
      if Random.State.float rng 1.0 < conf.Conf.parallel_link_prob then
        add_link a b rel)
    edges;
  let coords =
    Asn.Map.map
      (fun n ->
        Array.init n (fun _ ->
            (Random.State.int rng 100, Random.State.int rng 100)))
      routers
  in
  { conf; tiers; routers; links = List.rev !links; coords }

let total_ases (conf : Conf.t) =
  conf.Conf.n_tier1 + conf.Conf.n_tier2 + conf.Conf.n_tier3 + conf.Conf.n_stub

(* Degree-rank tiering for the organically grown families: the Conf
   tier counts become rank brackets (top [n_tier1] degrees are tier-1,
   and so on), so size presets keep their meaning across families.
   Returns the tier map plus a rank map (lower rank = bigger AS) whose
   total order directs every provider edge — providers always outrank
   their customers, so the customer-provider digraph is acyclic by
   construction (no dispute wheels from the generator). *)
let tiers_by_degree (conf : Conf.t) ~nodes ~degree_of =
  let ranked =
    List.sort
      (fun a b ->
        match compare (degree_of b) (degree_of a) with
        | 0 -> compare a b
        | c -> c)
      nodes
  in
  let n1 = conf.Conf.n_tier1
  and n2 = conf.Conf.n_tier2
  and n3 = conf.Conf.n_tier3 in
  let _, tiers, rank =
    List.fold_left
      (fun (i, tiers, rank) a ->
        let tier =
          if i < n1 then T1
          else if i < n1 + n2 then T2
          else if i < n1 + n2 + n3 then T3
          else Stub
        in
        (i + 1, Asn.Map.add a tier tiers, Asn.Map.add a i rank))
      (0, Asn.Map.empty, Asn.Map.empty)
      ranked
  in
  (tiers, rank)

(* Relationship assignment shared by Waxman and GLP: cross-tier edges
   are Provider (better-ranked side provides), same-tier edges start
   as Peer; then every non-tier-1 AS without a provider converts its
   best-ranked peer edge to Provider (route propagation needs a
   customer cone), and finally a [sibling_frac] of provider edges flip
   to Sibling, mirroring the paper family. *)
let assign_rels (conf : Conf.t) rng ~tiers ~rank ~raw_edges =
  let tier a = Asn.Map.find a tiers in
  let rk a = Asn.Map.find a rank in
  let edges =
    Array.of_list
      (List.map
         (fun (u, v) ->
           let u, v = if rk u < rk v then (u, v) else (v, u) in
           if tier u = tier v then (u, v, Peer) else (u, v, Provider))
         raw_edges)
  in
  let has_provider = Hashtbl.create 256 in
  Array.iter
    (fun (_, v, rel) -> if rel = Provider then Hashtbl.replace has_provider v ())
    edges;
  (* Peer-edge indices per AS, deterministic order. *)
  let peer_edges = Hashtbl.create 256 in
  Array.iteri
    (fun i (u, v, rel) ->
      if rel = Peer then begin
        Hashtbl.replace peer_edges u
          (i :: Option.value ~default:[] (Hashtbl.find_opt peer_edges u));
        Hashtbl.replace peer_edges v
          (i :: Option.value ~default:[] (Hashtbl.find_opt peer_edges v))
      end)
    edges;
  Asn.Map.iter
    (fun a t ->
      if t <> T1 && not (Hashtbl.mem has_provider a) then
        (* Best-ranked (strictly better) neighbour becomes the provider;
           a local hub that outranks all its neighbours keeps none. *)
        let candidates =
          Option.value ~default:[] (Hashtbl.find_opt peer_edges a)
          |> List.filter_map (fun i ->
                 let u, v, _ = edges.(i) in
                 let other = if u = a then v else u in
                 if rk other < rk a then Some (rk other, i, other) else None)
        in
        match List.sort compare candidates with
        | [] -> ()
        | (_, i, other) :: _ ->
            edges.(i) <- (other, a, Provider);
            Hashtbl.replace has_provider a ())
    tiers;
  Array.to_list edges
  |> List.map (fun (u, v, rel) ->
         match rel with
         | Provider when Random.State.float rng 1.0 < conf.Conf.sibling_frac ->
             (u, v, Sibling)
         | rel -> (u, v, rel))

(* Waxman geometric family, bounded-candidate incremental variant:
   ASes arrive at uniform positions on the 100x100 grid; each new AS
   scans a bounded sample of earlier ASes and links to each with the
   Waxman probability alpha * exp (-d / (beta * l)).  Linking to at
   least the best candidate keeps the graph connected by construction
   while degree stays linear in alpha rather than in the AS count. *)
let generate_waxman (p : Family.waxman_params) (conf : Conf.t) rng =
  let n = total_ases conf in
  let pos =
    Array.init (n + 1) (fun _ ->
        (Random.State.float rng 100.0, Random.State.float rng 100.0))
  in
  let l = 100.0 *. sqrt 2.0 in
  let prob u v =
    let xu, yu = pos.(u) and xv, yv = pos.(v) in
    let d = sqrt (((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0)) in
    p.Family.alpha *. exp (-.d /. (p.Family.beta *. l))
  in
  let sample_cap = 40 in
  let raw_edges = ref [] in
  let degree = Hashtbl.create 1024 in
  let deg a = Option.value ~default:0 (Hashtbl.find_opt degree a) in
  let bump a = Hashtbl.replace degree a (deg a + 1) in
  let add_edge u v =
    raw_edges := (u, v) :: !raw_edges;
    bump u;
    bump v
  in
  for u = 2 to n do
    let candidates =
      if u - 1 <= sample_cap then List.init (u - 1) (fun i -> i + 1)
      else begin
        let seen = Hashtbl.create sample_cap in
        let rec draw acc k =
          if k = 0 then acc
          else
            let c = 1 + Random.State.int rng (u - 1) in
            if Hashtbl.mem seen c then draw acc (k - 1)
            else begin
              Hashtbl.replace seen c ();
              draw (c :: acc) (k - 1)
            end
        in
        (* Budget 2*cap draws; duplicates just shrink the sample. *)
        List.rev (draw [] (2 * sample_cap))
      end
    in
    let accepted =
      List.filter (fun c -> Random.State.float rng 1.0 < prob u c) candidates
    in
    (match accepted with
    | [] ->
        (* Guarantee connectivity: take the most attractive candidate. *)
        let best =
          List.fold_left
            (fun best c ->
              match best with
              | None -> Some c
              | Some b -> if prob u c > prob u b then Some c else best)
            None candidates
        in
        Option.iter (fun c -> add_edge c u) best
    | cs -> List.iter (fun c -> add_edge c u) cs)
  done;
  let raw_edges = List.rev !raw_edges in
  let nodes = List.init n (fun i -> i + 1) in
  let tiers, rank = tiers_by_degree conf ~nodes ~degree_of:deg in
  let edges = assign_rels conf rng ~tiers ~rank ~raw_edges in
  realize conf rng ~tiers ~edges

(* GLP preferential-attachment family (Bu & Towsley 2002): grow from a
   small clique; each step either adds [m] edges between existing ASes
   (probability [p]) or a new AS with [m] edges, endpoints drawn with
   probability proportional to [degree - beta].  Connected by
   construction; degree-rank tiering as for Waxman. *)
let generate_glp (g : Family.glp_params) (conf : Conf.t) rng =
  let n = max (total_ases conf) (g.Family.m + 1) in
  let degree = Hashtbl.create 1024 in
  let deg a = Option.value ~default:0 (Hashtbl.find_opt degree a) in
  let bump a = Hashtbl.replace degree a (deg a + 1) in
  let adjacent = Hashtbl.create 4096 in
  let raw_edges = ref [] in
  let add_edge u v =
    Hashtbl.replace adjacent (u, v) ();
    Hashtbl.replace adjacent (v, u) ();
    raw_edges := (u, v) :: !raw_edges;
    bump u;
    bump v
  in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  let new_node () =
    incr n_nodes;
    nodes := !n_nodes :: !nodes;
    !n_nodes
  in
  (* Seed clique of m+1 ASes. *)
  let m0 = g.Family.m + 1 in
  for _ = 1 to m0 do
    ignore (new_node ())
  done;
  for u = 1 to m0 do
    for v = u + 1 to m0 do
      add_edge u v
    done
  done;
  let weight a = float_of_int (deg a) -. g.Family.beta in
  let pick_existing ?(avoid = []) () =
    let candidates = List.filter (fun a -> not (List.mem a avoid)) !nodes in
    weighted_pick_float rng weight candidates
  in
  while !n_nodes < n do
    if Random.State.float rng 1.0 < g.Family.p then
      (* Internal-edge step: m new edges between existing ASes. *)
      for _ = 1 to g.Family.m do
        match pick_existing () with
        | None -> ()
        | Some u -> (
            let rec try_v tries =
              if tries = 0 then ()
              else
                match pick_existing ~avoid:[ u ] () with
                | None -> ()
                | Some v ->
                    if Hashtbl.mem adjacent (u, v) then try_v (tries - 1)
                    else add_edge u v
            in
            try_v 4)
      done
    else begin
      let w = new_node () in
      let rec attach chosen k =
        if k = 0 then ()
        else
          match pick_existing ~avoid:(w :: chosen) () with
          | None -> ()
          | Some u ->
              add_edge u w;
              attach (u :: chosen) (k - 1)
      in
      attach [] (min g.Family.m (!n_nodes - 1))
    end
  done;
  let raw_edges = List.rev !raw_edges in
  let nodes = List.init !n_nodes (fun i -> i + 1) in
  let tiers, rank = tiers_by_degree conf ~nodes ~degree_of:deg in
  let edges = assign_rels conf rng ~tiers ~rank ~raw_edges in
  realize conf rng ~tiers ~edges

(* Datacenter-style k-pod fattree recast as an AS hierarchy: the
   (k/2)^2 core switches are the tier-1 ASes, the k*k/2 aggregation
   switches tier-2, the k*k/2 edge switches tier-3, and the remaining
   AS budget hangs off edge switches as stub ASes (round-robin, a
   [1 - stub_single_homed_frac] share dual-homed to the next edge
   switch).  Every switch-level link is a Provider relationship from
   the higher layer, so customer routes propagate core-wards exactly
   as in the tiered families.  [pods = 0] picks the largest even k
   whose switch count fits within half the configured AS budget,
   leaving the other half for stubs. *)
let generate_fattree (f : Family.fattree_params) (conf : Conf.t) rng =
  let budget = total_ases conf in
  let switches_of k = ((k / 2) * (k / 2)) + (k * k) in
  let k =
    if f.Family.pods > 0 then f.Family.pods
    else begin
      let k = ref 2 in
      while switches_of (!k + 2) <= max (switches_of 2) (budget / 2) do
        k := !k + 2
      done;
      !k
    end
  in
  let half = k / 2 in
  let n_core = half * half in
  let n_agg = k * half in
  let n_edge = k * half in
  (* ASN layout: cores 1..n_core, then aggs, then edges, then stubs. *)
  let core i = 1 + i in
  let agg pod j = 1 + n_core + (pod * half) + j in
  let edge pod j = 1 + n_core + n_agg + (pod * half) + j in
  let n_switches = n_core + n_agg + n_edge in
  let n_stubs = max 0 (budget - n_switches) in
  let stub i = 1 + n_switches + i in
  let tiers = ref Asn.Map.empty in
  let set_tier a t = tiers := Asn.Map.add a t !tiers in
  for i = 0 to n_core - 1 do
    set_tier (core i) T1
  done;
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      set_tier (agg pod j) T2;
      set_tier (edge pod j) T3
    done
  done;
  for i = 0 to n_stubs - 1 do
    set_tier (stub i) Stub
  done;
  let edges = ref [] in
  let add a b = edges := (a, b, Provider) :: !edges in
  (* Core group j (cores j*half .. j*half+half-1) serves agg j of every
     pod; each agg serves every edge switch in its pod. *)
  for pod = 0 to k - 1 do
    for j = 0 to half - 1 do
      for c = 0 to half - 1 do
        add (core ((j * half) + c)) (agg pod j)
      done;
      for e = 0 to half - 1 do
        add (agg pod j) (edge pod e)
      done
    done
  done;
  for i = 0 to n_stubs - 1 do
    let e = i mod n_edge in
    let home pod_j =
      let pod = pod_j / half and j = pod_j mod half in
      edge pod j
    in
    add (home e) (stub i);
    if Random.State.float rng 1.0 >= conf.Conf.stub_single_homed_frac then
      add (home ((e + 1) mod n_edge)) (stub i)
  done;
  realize conf rng ~tiers:!tiers ~edges:(List.rev !edges)

(* ------------------------------------------------------------------ *)

let of_family family conf rng =
  (* Record the family actually used so provenance survives in the
     world (pp_summary, bench metadata) even when the caller's Conf
     carried a different default. *)
  let conf = { conf with Conf.family } in
  match family with
  | Family.Paper -> generate_paper conf rng
  | Family.Waxman p -> generate_waxman p conf rng
  | Family.Glp p -> generate_glp p conf rng
  | Family.Fattree p -> generate_fattree p conf rng

let ases t = Asn.Map.fold (fun a _ acc -> a :: acc) t.tiers [] |> List.rev

let tier_of t a = Asn.Map.find a t.tiers

let as_graph t =
  List.fold_left
    (fun g l -> Topology.Asgraph.add_edge g l.a l.b)
    (List.fold_left (fun g a -> Topology.Asgraph.add_node g a) Topology.Asgraph.empty (ases t))
    t.links

let igp_cost t asn r1 r2 =
  let c = Asn.Map.find asn t.coords in
  let x1, y1 = c.(r1) and x2, y2 = c.(r2) in
  abs (x1 - x2) + abs (y1 - y2)

let true_rel t a b =
  let rec find = function
    | [] -> None
    | l :: rest ->
        if l.a = a && l.b = b then
          Some
            (match l.rel with
            | Provider -> `Provider
            | Peer -> `Peer
            | Sibling -> `Sibling)
        else if l.a = b && l.b = a then
          Some
            (match l.rel with
            | Provider -> `Customer
            | Peer -> `Peer
            | Sibling -> `Sibling)
        else find rest
  in
  find t.links

let pp_summary ppf t =
  let count tier =
    Asn.Map.fold (fun _ t' acc -> if t' = tier then acc + 1 else acc) t.tiers 0
  in
  let total_routers = Asn.Map.fold (fun _ n acc -> acc + n) t.routers 0 in
  Format.fprintf ppf
    "family=%s: %d ASes (t1=%d t2=%d t3=%d stub=%d), %d router links, %d routers"
    (Family.to_string t.conf.Conf.family)
    (Asn.Map.cardinal t.tiers) (count T1) (count T2) (count T3) (count Stub)
    (List.length t.links) total_routers
