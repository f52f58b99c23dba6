open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Relclass = Simulator.Relclass
module Decision = Simulator.Decision

type world = {
  topo : Gentopo.t;
  net : Net.t;
  node_of_router : (Asn.t * int, int) Hashtbl.t;
  obs : (int * Rib.obs_point) list;
  prefix_plan : (Prefix.t * Asn.t * int list) list;
  rng : Random.State.t;
}

let classes_of_rel = function
  | Gentopo.Provider -> (Relclass.customer, Relclass.provider)
      (* a provides for b: a sees b as its customer. *)
  | Gentopo.Peer -> (Relclass.peer, Relclass.peer)
  | Gentopo.Sibling -> (Relclass.sibling, Relclass.sibling)

let weird_or_default rng frac cls =
  if Random.State.float rng 1.0 < frac then
    let lo, hi = Relclass.band cls in
    lo + Random.State.int rng (hi - lo + 1)
  else Relclass.lpref cls

let build conf =
  let rng = Random.State.make [| conf.Conf.seed |] in
  let topo = Gentopo.of_family conf.Conf.family conf rng in
  let net = Net.create () in
  let node_of_router = Hashtbl.create 4096 in
  let router_of_node = Hashtbl.create 4096 in
  let used_ips = Hashtbl.create 4096 in
  let fresh_ip () =
    let rec go () =
      let ip = 0x0B000000 + Random.State.int rng 0x3FFFFFF in
      if Hashtbl.mem used_ips ip then go ()
      else begin
        Hashtbl.add used_ips ip ();
        Ipv4.of_int ip
      end
    in
    go ()
  in
  let ases = Gentopo.ases topo in
  List.iter
    (fun asn ->
      let n = Asn.Map.find asn topo.Gentopo.routers in
      for r = 0 to n - 1 do
        let id = Net.add_node net ~asn ~ip:(fresh_ip ()) in
        Hashtbl.add node_of_router (asn, r) id;
        Hashtbl.add router_of_node id (asn, r)
      done;
      (* iBGP: full mesh for small ASes; two redundant route
         reflectors with everyone else as clients for large ones. *)
      if n < conf.Conf.rr_threshold then
        for r1 = 0 to n - 1 do
          for r2 = r1 + 1 to n - 1 do
            ignore
              (Net.connect ~kind:Net.Ibgp net
                 (Hashtbl.find node_of_router (asn, r1))
                 (Hashtbl.find node_of_router (asn, r2)))
          done
        done
      else begin
        let node r = Hashtbl.find node_of_router (asn, r) in
        (* RR mesh (routers 0 and 1). *)
        ignore (Net.connect ~kind:Net.Ibgp net (node 0) (node 1));
        for client = 2 to n - 1 do
          List.iter
            (fun rr ->
              let s_rr, _s_client =
                Net.connect ~kind:Net.Ibgp net (node rr) (node client)
              in
              Net.set_rr_client net (node rr) s_rr true)
            [ 0; 1 ]
        done
      end)
    ases;
  Net.set_igp_cost net (fun n1 n2 ->
      let asn1, r1 = Hashtbl.find router_of_node n1 in
      let _asn2, r2 = Hashtbl.find router_of_node n2 in
      Gentopo.igp_cost topo asn1 r1 r2);
  (* eBGP sessions with Gao-Rexford preferences, a [weird_lpref_frac]
     dose of deviant per-session preferences. *)
  List.iter
    (fun l ->
      let na = Hashtbl.find node_of_router (l.Gentopo.a, l.Gentopo.a_router) in
      let nb = Hashtbl.find node_of_router (l.Gentopo.b, l.Gentopo.b_router) in
      let class_ab, class_ba = classes_of_rel l.Gentopo.rel in
      let sa, sb = Net.connect ~kind:Net.Ebgp ~class_ab ~class_ba net na nb in
      if l.Gentopo.rel = Gentopo.Sibling then begin
        (* Siblings are one organization: LOCAL_PREF crosses the
           boundary unchanged (cf. Net.set_carry_lpref). *)
        Net.set_carry_lpref net na sa true;
        Net.set_carry_lpref net nb sb true
      end
      else begin
        Net.set_import_lpref net na sa
          (weird_or_default rng conf.Conf.weird_lpref_frac class_ab);
        Net.set_import_lpref net nb sb
          (weird_or_default rng conf.Conf.weird_lpref_frac class_ba)
      end)
    topo.Gentopo.links;
  Net.set_export_matrix net Relclass.export_ok;
  Net.set_decision_steps net Decision.full_steps;
  (* Router-level ground truth follows the RFC: MED is only compared
     between routes from the same neighbouring AS (RFC 4271 §9.1.2.2).
     Quasi-router models keep the paper's always-compare ranking. *)
  Net.set_med_scope net Decision.Same_neighbor;
  (* Prefix plan: prefix 0 of an AS is anchored at every router; a
     [multi_prefix_frac] share of ASes originate further prefixes, each
     at a random non-empty router subset, so distinct prefixes of one AS
     exit through different routers. *)
  let prefix_plan =
    List.concat_map
      (fun asn ->
        let nodes = Net.nodes_of_as net asn in
        let count =
          if Random.State.float rng 1.0 < conf.Conf.multi_prefix_frac then
            2
            + Random.State.int rng
                (max 1 (conf.Conf.max_prefixes_per_as - 1))
          else 1
        in
        let count = min count Asn.max_prefixes in
        List.init count (fun i ->
            let anchors =
              if i = 0 then nodes
              else
                let subset =
                  List.filter (fun _ -> Random.State.float rng 1.0 < 0.5) nodes
                in
                if subset = [] then
                  [ List.nth nodes (Random.State.int rng (List.length nodes)) ]
                else subset
            in
            (Asn.nth_prefix asn i, asn, anchors)))
      ases
  in
  let all_prefixes = Array.of_list (List.map (fun (p, _, _) -> p) prefix_plan) in
  (* PoP-local origination: routers outside a prefix's anchor set do not
     announce it externally (think regional prefixes announced only at
     regional PoPs).  Different prefixes of one AS therefore enter the
     world through different provider links. *)
  List.iter
    (fun (prefix, asn, anchors) ->
      let nodes = Net.nodes_of_as net asn in
      List.iter
        (fun n ->
          if not (List.mem n anchors) then
            List.iter
              (fun (s, _) ->
                if Net.session_kind net n s = Net.Ebgp then
                  Net.deny_export net n s prefix)
              (Net.sessions_of net n))
        nodes)
    prefix_plan;
  List.iter
    (fun asn ->
      if
        Gentopo.tier_of topo asn <> Gentopo.Stub
        && Random.State.float rng 1.0 < conf.Conf.selective_announce_frac
      then begin
        let nodes = Net.nodes_of_as net asn in
        let ebgp_sessions =
          List.concat_map
            (fun n ->
              List.filter_map
                (fun (s, _) ->
                  if Net.session_kind net n s = Net.Ebgp then Some (n, s)
                  else None)
                (Net.sessions_of net n))
            nodes
        in
        let ns = List.length ebgp_sessions in
        if ns > 0 then
          let rounds = 2 + Random.State.int rng 3 in
          for _ = 1 to rounds do
            let n, s = List.nth ebgp_sessions (Random.State.int rng ns) in
            let victims = 10 + Random.State.int rng 31 in
            for _ = 1 to victims do
              let victim =
                all_prefixes.(Random.State.int rng (Array.length all_prefixes))
              in
              if Asn.of_origin_prefix victim <> Some asn then
                Net.deny_export net n s victim
            done
          done
      end)
    ases;
  (* Per-prefix MED noise: shifts choices among equal-length candidates
     of the same neighbouring AS (RFC-scoped MED), a cheap stand-in for
     the Internet's per-prefix traffic engineering. *)
  List.iter
    (fun asn ->
      if Random.State.float rng 1.0 < conf.Conf.med_noise_frac then begin
        let nodes = Net.nodes_of_as net asn in
        let ebgp_sessions =
          List.concat_map
            (fun n ->
              List.filter_map
                (fun (s, _) ->
                  if Net.session_kind net n s = Net.Ebgp then Some (n, s)
                  else None)
                (Net.sessions_of net n))
            nodes
        in
        let ns = List.length ebgp_sessions in
        if ns > 0 then
          let rounds = 2 + Random.State.int rng 4 in
          for _ = 1 to rounds do
            let n, s = List.nth ebgp_sessions (Random.State.int rng ns) in
            let touched = 5 + Random.State.int rng 16 in
            for _ = 1 to touched do
              let p =
                all_prefixes.(Random.State.int rng (Array.length all_prefixes))
              in
              Net.set_import_med net n s p (20 + Random.State.int rng 161)
            done
          done
      end)
    ases;
  (* Observation points, biased towards the core as in the paper. *)
  let weight asn =
    match Gentopo.tier_of topo asn with
    | Gentopo.T1 -> 10
    | Gentopo.T2 -> 6
    | Gentopo.T3 -> 3
    | Gentopo.Stub -> 2
  in
  let chosen = Hashtbl.create 64 in
  let total_weight = List.fold_left (fun acc a -> acc + weight a) 0 ases in
  let pick_as () =
    let x = Random.State.int rng total_weight in
    let rec go acc = function
      | [] -> None
      | a :: rest ->
          let acc = acc + weight a in
          if x < acc then Some a else go acc rest
    in
    go 0 ases
  in
  let rec choose_ases n guard =
    if n = 0 || guard = 0 then ()
    else
      match pick_as () with
      | Some a when not (Hashtbl.mem chosen a) ->
          Hashtbl.add chosen a ();
          choose_ases (n - 1) (guard - 1)
      | Some _ | None -> choose_ases n (guard - 1)
  in
  choose_ases conf.Conf.n_obs_ases (conf.Conf.n_obs_ases * 50);
  let obs = ref [] in
  Hashtbl.iter
    (fun asn () ->
      let n_routers = Asn.Map.find asn topo.Gentopo.routers in
      let count =
        if
          n_routers > 1
          && Random.State.float rng 1.0 < conf.Conf.multi_obs_frac
        then min n_routers (2 + Random.State.int rng 2)
        else 1
      in
      let indices = Array.init n_routers (fun i -> i) in
      (* Partial Fisher-Yates to pick [count] distinct routers. *)
      for i = 0 to count - 1 do
        let j = i + Random.State.int rng (n_routers - i) in
        let tmp = indices.(i) in
        indices.(i) <- indices.(j);
        indices.(j) <- tmp
      done;
      for i = 0 to count - 1 do
        let node = Hashtbl.find node_of_router (asn, indices.(i)) in
        obs :=
          (node, { Rib.op_ip = Net.ip_of net node; op_as = asn }) :: !obs
      done)
    chosen;
  let obs =
    List.sort
      (fun (_, a) (_, b) -> Rib.obs_point_compare a b)
      !obs
  in
  { topo; net; node_of_router; obs; prefix_plan; rng }

let originators w asn = Net.nodes_of_as w.net asn

let simulate w prefix =
  let _, _, anchors =
    List.find (fun (p, _, _) -> Prefix.equal p prefix) w.prefix_plan
  in
  Engine.simulate w.net ~prefix ~originators:anchors

let observe w =
  let plan = Array.of_list w.prefix_plan in
  let total = Array.length plan in
  let obs = Array.of_list w.obs in
  (* Converging each prefix only reads the network, so the per-prefix
     simulations fan out over the domain pool; [Pool.map] keeps input
     order.  A task reads its observation points' paths inside its
     scoped run, so no converged state outlives its prefix.  The paths
     it keeps are the net's memo entries, which live as long as the net
     anyway; the dump copies them below, together, so that its
     long-lived paths and entries sit side by side in the heap rather
     than among the runs' garbage. *)
  let seen =
    Array.of_list
      (Simulator.Pool.map
         (fun (prefix, _origin, anchors) ->
           Engine.with_cold w.net ~prefix ~originators:anchors (fun st ->
               Array.map
                 (fun (node, _) -> Engine.advertised_path w.net st node)
                 obs))
         w.prefix_plan)
  in
  (* The entries in dump order, observation point then prefix, so that
     [Rib.of_entries] finds them sorted.  [obs] is sorted already. *)
  let by_prefix = Array.init total Fun.id in
  let prefix i =
    let p, _, _ = plan.(i) in
    p
  in
  Array.sort (fun i j -> Prefix.compare (prefix i) (prefix j)) by_prefix;
  (* One copy per distinct path: vantage points see the same path for
     many prefixes (the seed-42 scale-0.12 dump's 4,205 entries carry
     934 distinct paths), and paths are immutable. *)
  let copies = Hashtbl.create 256 in
  let copy path =
    match Hashtbl.find_opt copies path with
    | Some p -> p
    | None ->
        let p = Aspath.of_array path in
        Hashtbl.add copies path p;
        p
  in
  let entries = ref [] in
  for o = Array.length obs - 1 downto 0 do
    let op = snd obs.(o) in
    for k = total - 1 downto 0 do
      let i = by_prefix.(k) in
      let path = seen.(i).(o) in
      if Array.length path > 0 then
        entries := { Rib.op; prefix = prefix i; path = copy path } :: !entries
    done
  done;
  Rib.of_entries !entries

let observation_points w = List.map snd w.obs

let pp_summary ppf w =
  Format.fprintf ppf "%a; net: %a; %d observation points" Gentopo.pp_summary
    w.topo Net.pp_summary w.net (List.length w.obs)
