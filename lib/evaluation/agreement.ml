module Decision = Simulator.Decision
module Matching = Refine.Matching
module Qrmodel = Asmodel.Qrmodel

type breakdown = {
  cases : int;
  agree : int;
  not_available : int;
  unresolved : int;
  by_step : (Decision.step * int) list;
}

(* Match-grade tallies, flushed once per fold. *)
let cases_m = Obs.Metrics.counter "agreement.cases"

let agree_m = Obs.Metrics.counter "agreement.agree"

let not_available_m = Obs.Metrics.counter "agreement.not_available"

(* Every entry of a modelled prefix is a case, graded with its distinct
   path. *)
let of_walk model (walk : Matching.walk) =
  let counts = Hashtbl.create 8 in
  let cases = ref 0 and agree = ref 0 and not_available = ref 0 in
  let unresolved = ref 0 in
  List.iter
    (fun (_, observed) ->
      List.iter
        (fun (o : Matching.observed) ->
          let add r = r := !r + o.Matching.entries in
          match o.Matching.outcome with
          | Matching.Unmodelled -> ()
          | Matching.Unresolved ->
              add cases;
              add unresolved
          | Matching.Graded g -> (
              add cases;
              match (g.Matching.verdict, g.Matching.eliminated_at) with
              | Matching.Rib_out, _ -> add agree
              | _, Some step -> (
                  match Hashtbl.find_opt counts step with
                  | Some r -> add r
                  | None -> Hashtbl.add counts step (ref o.Matching.entries))
              | _, None -> add not_available))
        observed)
    walk.Matching.prefixes;
  Obs.Metrics.incr ~by:!cases cases_m;
  Obs.Metrics.incr ~by:!agree agree_m;
  Obs.Metrics.incr ~by:!not_available not_available_m;
  {
    cases = !cases;
    agree = !agree;
    not_available = !not_available;
    unresolved = !unresolved;
    by_step =
      List.filter_map
        (fun step ->
          match Hashtbl.find_opt counts step with
          | Some n -> Some (step, !n)
          | None -> None)
        (Simulator.Net.decision_steps model.Qrmodel.net);
  }

let simulate_and_grade model data =
  Obs.Trace.with_span "agreement.grade" @@ fun () ->
  of_walk model (Matching.walk model ~states:(Hashtbl.create 0) data)

let agree_fraction b =
  if b.cases = 0 then 0.0 else float_of_int b.agree /. float_of_int b.cases

let pp ppf b =
  let pct n =
    if b.cases = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int b.cases
  in
  Format.fprintf ppf "@[<v>AS-paths which agree: %6.1f%%@," (pct b.agree);
  Format.fprintf ppf "AS-paths which disagree: %6.1f%%@,"
    (pct (b.cases - b.agree - b.unresolved));
  Format.fprintf ppf "  due to AS-path not available: %6.1f%%@,"
    (pct b.not_available);
  List.iter
    (fun (step, n) ->
      Format.fprintf ppf "  due to %-24s %6.1f%%@,"
        (Decision.step_to_string step ^ ":")
        (pct n))
    b.by_step;
  if b.unresolved > 0 then
    Format.fprintf ppf "unresolved (no converged sim): %6.1f%%@,"
      (pct b.unresolved);
  Format.fprintf ppf "(%d cases)@]" b.cases
