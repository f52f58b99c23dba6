open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine

type snapshot = (Prefix.t * (Asn.t * int array list) list) list

(* Every AS's selected paths in one converged state, ASes with none
   left out. *)
let per_as (model : Qrmodel.t) ases st =
  List.filter_map
    (fun asn ->
      match Engine.selected_paths model.Qrmodel.net st asn with
      | [] -> None
      | paths -> Some (asn, paths))
    ases

let snapshot ?prefixes ?on_prefix (model : Qrmodel.t) =
  let prefixes =
    match prefixes with
    | Some ps -> ps
    | None -> List.map fst model.Qrmodel.prefixes
  in
  let ases = Topology.Asgraph.nodes model.Qrmodel.graph in
  let total = List.length prefixes in
  List.mapi
    (fun i p ->
      let paths = per_as model ases (Qrmodel.simulate model p) in
      (match on_prefix with Some f -> f (i + 1) total | None -> ());
      (p, paths))
    prefixes

let sessions_between net a b =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun (s, peer) ->
          if Net.asn_of net peer = b then Some (n, s) else None)
        (Net.sessions_of net n))
    (Net.nodes_of_as net a)

let link_sessions net a b = sessions_between net a b @ sessions_between net b a

(* A deny only empties the receiver's mirror slot, and under a total
   order dropping a candidate that is not the best leaves the best in
   place: see the interface for the full argument. *)
let crossing (model : Qrmodel.t) a b states =
  let net = model.Qrmodel.net in
  let receivers =
    List.map
      (fun (n, s) -> (Net.session_peer net n s, n, Net.session_reverse net n s))
      (link_sessions net a b)
  in
  let total_order =
    not
      (Net.med_scope net = Simulator.Decision.Same_neighbor
      && List.mem Simulator.Decision.Med (Net.decision_steps net))
  in
  let carries st (r, n, rs) =
    match Engine.best st r with
    | Some best ->
        best.Simulator.Rattr.from_node = n
        && best.Simulator.Rattr.from_session = rs
    | None -> false
  in
  let crosses st =
    (not total_order)
    || (not (Engine.resumable net st))
    || List.exists (carries st) receivers
  in
  if receivers = [] then []
  else
    List.filter_map (fun (p, st) -> if crosses st then Some p else None) states

type disabled = { half_sessions : int; placed : (int * int * Prefix.t) list }

let disable_as_link ?prefixes (model : Qrmodel.t) a b =
  let net = model.Qrmodel.net in
  let prefixes =
    match prefixes with
    | Some ps -> ps
    | None -> List.map fst model.Qrmodel.prefixes
  in
  let halves = link_sessions net a b in
  (* A deny that was already there (a refiner-placed filter, or an
     earlier disable's) is not ours to lift. *)
  let placed =
    List.concat_map
      (fun (n, s) ->
        List.filter_map
          (fun p ->
            let fresh = not (Net.export_denied net n s p) in
            Net.deny_export net n s p;
            if fresh then Some (n, s, p) else None)
          prefixes)
      halves
  in
  { half_sessions = List.length halves; placed }

let enable_as_link (model : Qrmodel.t) d =
  List.iter
    (fun (n, s, p) -> Net.allow_export model.Qrmodel.net n s p)
    d.placed

type change = {
  prefix : Prefix.t;
  ases_changed : Asn.t list;
  ases_lost : Asn.t list;
}

type diff = {
  changes : change list;
  prefixes_affected : int;
  ases_affected : int;
}

(* An AS's selected paths are a function of its nodes' best paths, so
   only an AS owning a node whose best path moved can have changed: one
   O(nodes) pass finds those, and the path sets are compared for them
   alone. *)
let changed_ases net before after =
  let best_before n =
    match before with Some st -> Engine.best st n | None -> None
  in
  let candidates = ref Asn.Set.empty in
  for n = 0 to Net.node_count net - 1 do
    let moved =
      match (best_before n, Engine.best after n) with
      | None, None -> false
      | Some x, Some y ->
          not (Simulator.Rattr.same_path x.Simulator.Rattr.path y.path)
      | _ -> true
    in
    if moved then candidates := Asn.Set.add (Net.asn_of net n) !candidates
  done;
  let changed, lost =
    Asn.Set.fold
      (fun asn (changed, lost) ->
        let was =
          match before with
          | Some st -> Engine.selected_paths net st asn
          | None -> []
        in
        let now = Engine.selected_paths net after asn in
        if now = was then (changed, lost)
        else (asn :: changed, if now = [] then asn :: lost else lost))
      !candidates ([], [])
  in
  (List.rev changed, List.rev lost)

let diff_prefix p per_as_before per_as_after =
  let before_tbl = Hashtbl.create 64 in
  List.iter (fun (a, paths) -> Hashtbl.replace before_tbl a paths)
    per_as_before;
  let after_tbl = Hashtbl.create 64 in
  List.iter (fun (a, paths) -> Hashtbl.replace after_tbl a paths)
    per_as_after;
  let all_ases =
    List.sort_uniq Asn.compare
      (List.map fst per_as_before @ List.map fst per_as_after)
  in
  let changed, lost =
    List.fold_left
      (fun (changed, lost) a ->
        let b = Hashtbl.find_opt before_tbl a in
        let f = Hashtbl.find_opt after_tbl a in
        match (b, f) with
        | Some _, None -> (a :: changed, a :: lost)
        | Some pb, Some pf when pb <> pf -> (a :: changed, lost)
        | None, Some _ -> (a :: changed, lost)
        | Some _, Some _ | None, None -> (changed, lost))
      ([], []) all_ases
  in
  if changed = [] then None
  else
    Some
      { prefix = p; ases_changed = List.rev changed; ases_lost = List.rev lost }

let diff before after =
  (* Joined by prefix key, as a full outer join: churn can add
     (announce / hijack) or drop (quarantine) prefixes between two
     snapshots, so the lists need not align positionally or even cover
     the same set.  A prefix only in [before] reads as every AS losing
     it; one only in [after] as every AS gaining it. *)
  let after_tbl = Prefix.Table.create (max 16 (List.length after)) in
  List.iter (fun (p, per_as) -> Prefix.Table.replace after_tbl p per_as) after;
  let before_set = Prefix.Table.create (max 16 (List.length before)) in
  List.iter (fun (p, _) -> Prefix.Table.replace before_set p ()) before;
  let changes =
    List.filter_map
      (fun (p, per_as_before) ->
        let per_as_after =
          Option.value ~default:[] (Prefix.Table.find_opt after_tbl p)
        in
        diff_prefix p per_as_before per_as_after)
      before
    @ List.filter_map
        (fun (p, per_as_after) ->
          if Prefix.Table.mem before_set p then None
          else diff_prefix p [] per_as_after)
        after
  in
  let ases_affected =
    List.fold_left
      (fun acc c -> Asn.Set.union acc (Asn.Set.of_list c.ases_changed))
      Asn.Set.empty changes
    |> Asn.Set.cardinal
  in
  { changes; prefixes_affected = List.length changes; ases_affected }

let pp_diff ppf d =
  Format.fprintf ppf "prefixes affected: %d, distinct ASes affected: %d@."
    d.prefixes_affected d.ases_affected;
  List.iteri
    (fun i c ->
      if i < 20 then
        Format.fprintf ppf "  %a: %d ASes changed, %d lost all routes@."
          Prefix.pp c.prefix
          (List.length c.ases_changed)
          (List.length c.ases_lost))
    d.changes;
  if List.length d.changes > 20 then
    Format.fprintf ppf "  ... (%d more prefixes)@."
      (List.length d.changes - 20)
