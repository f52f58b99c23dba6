open Bgp
module Decision = Simulator.Decision
module Qrmodel = Asmodel.Qrmodel

type breakdown = {
  cases : int;
  agree : int;
  not_available : int;
  by_step : (Decision.step * int) list;
}

(* Match-grade tallies, flushed once per grade call. *)
let cases_m = Obs.Metrics.counter "agreement.cases"

let agree_m = Obs.Metrics.counter "agreement.agree"

let not_available_m = Obs.Metrics.counter "agreement.not_available"

(* Every observed (prefix, path) is graded inside its prefix's scoped
   run, so no baseline state outlives its prefix. *)
let simulate_and_grade ?on_prefix model data =
  Obs.Trace.with_span "agreement.grade" @@ fun () ->
  let net = model.Qrmodel.net in
  let steps = Simulator.Net.decision_steps net in
  let counts = Hashtbl.create 8 in
  let bump step =
    Hashtbl.replace counts step
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts step))
  in
  let cases = ref 0 and agree = ref 0 and not_available = ref 0 in
  let grade st (e : Rib.entry) =
    incr cases;
    match Refine.Matching.classify net st e.Rib.path with
    | Refine.Matching.Rib_out -> incr agree
    | Refine.Matching.No_rib_in -> incr not_available
    | Refine.Matching.Potential_rib_out | Refine.Matching.Rib_in -> (
        match Refine.Matching.eliminated_at net st e.Rib.path with
        | Some step -> bump step
        | None -> incr not_available)
  in
  let groups =
    List.filter
      (fun (p, _) -> Qrmodel.origin_of model p <> None)
      (Prefix.Map.bindings (Rib.by_prefix data))
  in
  let total = List.length groups in
  List.iteri
    (fun i (prefix, entries) ->
      Simulator.Engine.with_cold net ~prefix
        ~originators:(Qrmodel.originators model prefix) (fun st ->
          List.iter (grade st) entries);
      match on_prefix with Some f -> f (i + 1) total | None -> ())
    groups;
  Obs.Metrics.incr ~by:!cases cases_m;
  Obs.Metrics.incr ~by:!agree agree_m;
  Obs.Metrics.incr ~by:!not_available not_available_m;
  {
    cases = !cases;
    agree = !agree;
    not_available = !not_available;
    by_step =
      List.filter_map
        (fun step ->
          match Hashtbl.find_opt counts step with
          | Some n -> Some (step, n)
          | None -> None)
        steps;
  }

let agree_fraction b =
  if b.cases = 0 then 0.0 else float_of_int b.agree /. float_of_int b.cases

let pp ppf b =
  let pct n =
    if b.cases = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int b.cases
  in
  Format.fprintf ppf "@[<v>AS-paths which agree: %6.1f%%@," (pct b.agree);
  Format.fprintf ppf "AS-paths which disagree: %6.1f%%@,"
    (pct (b.cases - b.agree));
  Format.fprintf ppf "  due to AS-path not available: %6.1f%%@,"
    (pct b.not_available);
  List.iter
    (fun (step, n) ->
      Format.fprintf ppf "  due to %-24s %6.1f%%@,"
        (Decision.step_to_string step ^ ":")
        (pct n))
    b.by_step;
  Format.fprintf ppf "(%d cases)@]" b.cases
