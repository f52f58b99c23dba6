module Net = Simulator.Net

type delta = { added : int; removed : int }

type outcome = {
  result : Refiner.result;
  new_quasi_routers : int;
  filters : delta;
  med_rules : delta;
}

(* Deltas are computed from rule-set snapshots, not counter
   differences: the refiner both adds and deletes rules (filter
   deletion is a first-class move, Figure 7), and a net count of the
   two directions can go negative — or hide churn entirely. *)
let deny_rules net = Net.fold_export_denies net (fun n s p acc -> (n, s, p) :: acc) []

let med_rules net =
  Net.fold_import_meds net (fun n s p _v acc -> (n, s, p) :: acc) []

let delta ~before ~after =
  let index l =
    let tbl = Hashtbl.create (List.length l + 1) in
    List.iter (fun k -> Hashtbl.replace tbl k ()) l;
    tbl
  in
  let before_tbl = index before and after_tbl = index after in
  {
    added =
      List.length (List.filter (fun k -> not (Hashtbl.mem before_tbl k)) after);
    removed =
      List.length (List.filter (fun k -> not (Hashtbl.mem after_tbl k)) before);
  }

let add_observations ?options (model : Asmodel.Qrmodel.t) data =
  let net = model.Asmodel.Qrmodel.net in
  let nodes_before = Net.node_count net in
  let denies_before = deny_rules net and meds_before = med_rules net in
  let result = Refiner.refine ?options model ~training:data in
  {
    result;
    new_quasi_routers = Net.node_count net - nodes_before;
    filters = delta ~before:denies_before ~after:(deny_rules net);
    med_rules = delta ~before:meds_before ~after:(med_rules net);
  }
