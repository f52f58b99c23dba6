open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Qrmodel = Asmodel.Qrmodel

type stats = {
  nodes_before : int;
  nodes_after : int;
  sessions_before : int;
  sessions_after : int;
}

(* Behavioural signature of a node: its selected AS-level path (or
   absence) for every model prefix, in prefix order.  One pool batch
   runs the prefixes, each in a scoped run that reads its nodes' best
   paths before its state is recycled. *)
let signatures (model : Qrmodel.t) =
  let net = model.Qrmodel.net in
  let n = Net.node_count net in
  let sim p =
    Engine.with_cold net ~prefix:p ~originators:(Qrmodel.originators model p)
      (fun st ->
        ( Array.init n (fun id ->
              match Engine.best st id with
              | Some r -> Some r.Simulator.Rattr.path
              | None -> None),
          (Engine.outcome st, Engine.events st) ))
  in
  let results, _ =
    Simulator.Pool.simulate_result ~sim ~run:snd
      (List.map fst model.Qrmodel.prefixes)
  in
  let sigs = Array.make n [] in
  List.iter
    (function
      | _, Error e -> raise e.Simulator.Pool.exn
      | _, Ok (bests, _) ->
          for id = 0 to n - 1 do
            sigs.(id) <- bests.(id) :: sigs.(id)
          done)
    results;
  sigs

let compact (model : Qrmodel.t) =
  let net = model.Qrmodel.net in
  let n = Net.node_count net in
  let sigs = signatures model in
  (* Group nodes by (asn, signature); the first (lowest id, lowest
     address) member represents the group. *)
  let rep = Array.init n (fun i -> i) in
  let groups = Hashtbl.create n in
  for id = 0 to n - 1 do
    let key = (Net.asn_of net id, sigs.(id)) in
    match Hashtbl.find_opt groups key with
    | Some leader -> rep.(id) <- leader
    | None -> Hashtbl.add groups key id
  done;
  (* Fresh net over the representatives, re-indexing quasi-router
     addresses per AS. *)
  let new_net = Net.create () in
  let new_id = Array.make n (-1) in
  let next_index = Hashtbl.create 64 in
  for id = 0 to n - 1 do
    if rep.(id) = id then begin
      let asn = Net.asn_of net id in
      let idx = Option.value ~default:0 (Hashtbl.find_opt next_index asn) in
      Hashtbl.replace next_index asn (idx + 1);
      new_id.(id) <- Net.add_node new_net ~asn ~ip:(Asn.router_ip asn idx)
    end
  done;
  (* Collect old sessions per new unordered pair, then materialize each
     pair once with merged policies: export denies intersect, import
     MED rules take the minimum. *)
  let pair_sessions = Hashtbl.create 1024 in
  for id = 0 to n - 1 do
    List.iter
      (fun (s, peer) ->
        let a = new_id.(rep.(id)) and b = new_id.(rep.(peer)) in
        if a <> b then begin
          let key = if a < b then (a, b) else (b, a) in
          let halves =
            match Hashtbl.find_opt pair_sessions key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add pair_sessions key l;
                l
          in
          (* Store the half-session oriented low→high. *)
          let oriented = if a < b then (id, s, `Forward) else (id, s, `Backward) in
          halves := oriented :: !halves
        end)
      (Net.sessions_of net id)
  done;
  let merge_direction halves dir new_from new_from_session ~prefixes =
    (* Export denies from this side: a prefix stays denied only if every
       old half-session in this direction denied it. *)
    let this_dir =
      List.filter_map
        (fun (old_node, old_s, d) ->
          if d = dir then Some (old_node, old_s) else None)
        halves
    in
    List.iter
      (fun (p, _) ->
        let all_denied =
          this_dir <> []
          && List.for_all
               (fun (old_node, old_s) -> Net.export_denied net old_node old_s p)
               this_dir
        in
        if all_denied then Net.deny_export new_net new_from new_from_session p;
        (* Import MED at the peer for routes from this side: the
           decision process effectively sees the best (minimum) rank any
           of the old parallel sessions assigned — counting only
           sessions that actually delivered the prefix (not denied at
           the exporter) and ranking rule-less sessions at the default. *)
        let default = Net.default_med net in
        let med =
          List.fold_left
            (fun acc (old_node, old_s) ->
              if Net.export_denied net old_node old_s p then acc
              else
                let peer = Net.session_peer net old_node old_s in
                let rs = Net.session_reverse net old_node old_s in
                let v =
                  match Net.import_med net peer rs p with
                  | Some v -> v
                  | None -> default
                in
                min acc v)
            max_int this_dir
        in
        if med <> max_int && med <> default then begin
          let peer = Net.session_peer new_net new_from new_from_session in
          let rs = Net.session_reverse new_net new_from new_from_session in
          Net.set_import_med new_net peer rs p med
        end)
      prefixes
  in
  Hashtbl.iter
    (fun (a, b) halves ->
      let sa, sb = Net.connect new_net a b in
      merge_direction !halves `Forward a sa ~prefixes:model.Qrmodel.prefixes;
      merge_direction !halves `Backward b sb ~prefixes:model.Qrmodel.prefixes)
    pair_sessions;
  (* The model's decision configuration carries over. *)
  Net.set_decision_steps new_net (Net.decision_steps net);
  Net.set_med_scope new_net (Net.med_scope net);
  Net.set_default_med new_net (Net.default_med net);
  let compacted =
    {
      Qrmodel.net = new_net;
      graph = model.Qrmodel.graph;
      prefixes = model.Qrmodel.prefixes;
    }
  in
  let stats =
    {
      nodes_before = n;
      nodes_after = Net.node_count new_net;
      sessions_before = Net.session_count net / 2;
      sessions_after = Net.session_count new_net / 2;
    }
  in
  (compacted, stats)

let compact_verified model ~against =
  let compacted, stats = compact model in
  let before = Verify.verify model ~states:(Hashtbl.create 0) against in
  let after = Verify.verify compacted ~states:(Hashtbl.create 0) against in
  if after.Verify.exact >= before.Verify.exact then Some (compacted, stats)
  else None
