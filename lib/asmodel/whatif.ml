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

let of_states (model : Qrmodel.t) states =
  let ases = Topology.Asgraph.nodes model.Qrmodel.graph in
  List.map (fun (p, st) -> (p, per_as model ases st)) states

let sessions_between net a b =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun (s, peer) ->
          if Net.asn_of net peer = b then Some (n, s) else None)
        (Net.sessions_of net n))
    (Net.nodes_of_as net a)

type disabled = { half_sessions : int; placed : (int * int * Prefix.t) list }

let disable_as_link ?prefixes (model : Qrmodel.t) a b =
  let net = model.Qrmodel.net in
  let prefixes =
    match prefixes with
    | Some ps -> ps
    | None -> List.map fst model.Qrmodel.prefixes
  in
  let halves = sessions_between net a b @ sessions_between net b a in
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
