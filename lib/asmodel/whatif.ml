open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine

type snapshot = (Prefix.t * (Asn.t * int array list) list) list

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
      let st = Qrmodel.simulate model p in
      let per_as =
        List.filter_map
          (fun asn ->
            match Engine.selected_paths model.Qrmodel.net st asn with
            | [] -> None
            | paths -> Some (asn, paths))
          ases
      in
      (match on_prefix with Some f -> f (i + 1) total | None -> ());
      (p, per_as))
    prefixes

let of_states (model : Qrmodel.t) states =
  let ases = Topology.Asgraph.nodes model.Qrmodel.graph in
  List.map
    (fun (p, st) ->
      let per_as =
        List.filter_map
          (fun asn ->
            match Engine.selected_paths model.Qrmodel.net st asn with
            | [] -> None
            | paths -> Some (asn, paths))
          ases
      in
      (p, per_as))
    states

let sessions_between (model : Qrmodel.t) a b =
  let net = model.Qrmodel.net in
  List.concat_map
    (fun n ->
      List.filter_map
        (fun (s, peer) ->
          if Net.asn_of net peer = b then Some (n, s) else None)
        (Net.sessions_of net n))
    (Net.nodes_of_as net a)

(* Save/restore registry for link what-ifs.

   [disable_as_link] denies every model prefix on every half-session
   between the two ASes — including half-sessions that already carried
   refiner-placed denies.  To make [enable_as_link] an exact inverse we
   record, per (net, AS pair), which (node, session, prefix) denies
   pre-existed at disable time; enable then removes only the denies the
   what-if added.  Keyed by physical net identity so concurrent what-ifs
   on distinct models never interfere; guarded by a mutex because the
   serve layer may run what-ifs from a dedicated executor thread. *)

type saved_denies = {
  sd_net : Net.t;
  sd_pair : Asn.t * Asn.t;  (* normalized: min, max *)
  sd_pre : (int * int * Prefix.t) list;
      (* denies that existed before [disable_as_link] *)
}

let saved : saved_denies list ref = ref []

let saved_mu = Mutex.create ()

let norm_pair a b = if Asn.compare a b <= 0 then (a, b) else (b, a)

let disable_as_link ?prefixes (model : Qrmodel.t) a b =
  let net = model.Qrmodel.net in
  let prefixes =
    match prefixes with
    | Some ps -> ps
    | None -> List.map fst model.Qrmodel.prefixes
  in
  let halves = sessions_between model a b @ sessions_between model b a in
  if halves <> [] then begin
    let pre =
      List.concat_map
        (fun (n, s) ->
          List.filter_map
            (fun p ->
              if Net.export_denied net n s p then Some (n, s, p) else None)
            prefixes)
        halves
    in
    let pair = norm_pair a b in
    Mutex.lock saved_mu;
    (* Keep the earliest record: on a repeated disable the current denies
       include our own, which must not masquerade as pre-existing. *)
    if not (List.exists (fun e -> e.sd_net == net && e.sd_pair = pair) !saved)
    then saved := { sd_net = net; sd_pair = pair; sd_pre = pre } :: !saved;
    Mutex.unlock saved_mu
  end;
  List.iter
    (fun (n, s) -> List.iter (fun p -> Net.deny_export net n s p) prefixes)
    halves;
  List.length halves

let enable_as_link ?prefixes (model : Qrmodel.t) a b =
  let net = model.Qrmodel.net in
  let pair = norm_pair a b in
  let mine e = e.sd_net == net && e.sd_pair = pair in
  let entry =
    Mutex.protect saved_mu (fun () ->
        let e = List.find_opt mine !saved in
        saved := List.filter (fun e -> not (mine e)) !saved;
        e)
  in
  match entry with
  | None -> 0
  | Some e ->
      let prefixes =
        match prefixes with
        | Some ps -> ps
        | None -> List.map fst model.Qrmodel.prefixes
      in
      let halves = sessions_between model a b @ sessions_between model b a in
      let pre n s p =
        List.exists
          (fun (n', s', p') -> n = n' && s = s' && Prefix.equal p p')
          e.sd_pre
      in
      List.iter
        (fun (n, s) ->
          List.iter
            (fun p -> if not (pre n s p) then Net.allow_export net n s p)
            prefixes)
        halves;
      List.length halves

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
