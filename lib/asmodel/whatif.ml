open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine

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
   place: see [eval] in the interface for the full argument.  The
   argument needs a current state, converged at the net's generation;
   [Engine.resumable] is weaker: a state from before a duplication
   resumes, but its bests are stale. *)
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
    || (not (Engine.converged st))
    || Engine.generation st <> Net.generation net
    || List.exists (carries st) receivers
  in
  if receivers = [] then [] else List.filter (fun (_, st) -> crosses st) states

(* A deny that was already there (a refiner-placed filter, an earlier
   disable's, a down link's) is not ours to lift. *)
let deny_fresh net halves prefixes =
  List.concat_map
    (fun (n, s) ->
      List.filter_map
        (fun p ->
          if Net.export_denied net n s p then None
          else begin
            Net.deny_export net n s p;
            Some (n, s, p)
          end)
        prefixes)
    halves

type disabled = { half_sessions : int; placed : (int * int * Prefix.t) list }

let disable_as_link ?prefixes (model : Qrmodel.t) a b =
  let prefixes =
    match prefixes with
    | Some ps -> ps
    | None -> List.map fst model.Qrmodel.prefixes
  in
  let halves = link_sessions model.Qrmodel.net a b in
  {
    half_sessions = List.length halves;
    placed = deny_fresh model.Qrmodel.net halves prefixes;
  }

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
  resumed : int;
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

(* Deny the link on the crossing prefixes only, re-converge those from
   their states, diff each against its state, then lift exactly the
   denies placed and drain the touched sets, so the network is as it
   was. *)
let eval (model : Qrmodel.t) states a b =
  let net = model.Qrmodel.net in
  let targets = crossing model a b states in
  let disabled = disable_as_link ~prefixes:(List.map fst targets) model a b in
  let finally () =
    enable_as_link model disabled;
    List.iter (fun (p, _) -> Net.clear_touched net p) targets
  in
  Fun.protect ~finally @@ fun () ->
  let fresh, batch = Qrmodel.resimulate model targets in
  let changes =
    List.map2
      (fun (prefix, before) (_, after) ->
        match changed_ases net (Some before) after with
        | [], _ -> None
        | ases_changed, ases_lost -> Some { prefix; ases_changed; ases_lost })
      targets fresh
    |> List.filter_map Fun.id
  in
  let ases_affected =
    List.fold_left
      (fun acc c -> Asn.Set.union acc (Asn.Set.of_list c.ases_changed))
      Asn.Set.empty changes
    |> Asn.Set.cardinal
  in
  ( disabled.half_sessions,
    {
      changes;
      prefixes_affected = List.length changes;
      ases_affected;
      resumed = batch.Simulator.Warm.resumed;
    } )

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
