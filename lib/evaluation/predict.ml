module Matching = Refine.Matching

type totals = {
  cases : int;
  rib_out : int;
  potential_rib_out : int;
  rib_in : int;
  no_rib_in : int;
  unresolved : int;
}

type coverage = {
  prefixes : int;
  at_least_half : int;
  at_least_90 : int;
  full : int;
}

type report = { totals : totals; coverage : coverage; pool : Simulator.Pool.stats }

(* Match-grade tallies (metrics registry).  Flushed once per fold of a
   walk from the computed totals, so they always agree with the
   report. *)
let cases_m = Obs.Metrics.counter "predict.cases"

let rib_out_m = Obs.Metrics.counter "predict.rib_out"

let potential_m = Obs.Metrics.counter "predict.potential_rib_out"

let rib_in_m = Obs.Metrics.counter "predict.rib_in"

let no_rib_in_m = Obs.Metrics.counter "predict.no_rib_in"

let unresolved_m = Obs.Metrics.counter "predict.unresolved"

(* Every entry of a modelled prefix is a case, counted by verdict rank
   (4: unresolved); coverage counts each prefix's distinct graded
   paths. *)
let of_walk (w : Matching.walk) =
  let n = Array.make 5 0 in
  let prefixes = ref 0 and half = ref 0 and ninety = ref 0 and full = ref 0 in
  List.iter
    (fun (_, observed) ->
      let graded = ref 0 and matched = ref 0 in
      List.iter
        (fun (o : Matching.observed) ->
          let add i = n.(i) <- n.(i) + o.Matching.entries in
          match o.Matching.outcome with
          | Matching.Unmodelled -> ()
          | Matching.Unresolved -> add 4
          | Matching.Graded g ->
              add (Matching.verdict_rank g.Matching.verdict);
              incr graded;
              if g.Matching.verdict = Matching.Rib_out then incr matched)
        observed;
      if !graded > 0 then begin
        let frac = float_of_int !matched /. float_of_int !graded in
        incr prefixes;
        if frac >= 0.5 then incr half;
        if frac >= 0.9 then incr ninety;
        if !matched = !graded then incr full
      end)
    w.Matching.prefixes;
  let t =
    {
      cases = Array.fold_left ( + ) 0 n;
      rib_out = n.(0);
      potential_rib_out = n.(1);
      rib_in = n.(2);
      no_rib_in = n.(3);
      unresolved = n.(4);
    }
  in
  Obs.Metrics.incr ~by:t.cases cases_m;
  Obs.Metrics.incr ~by:t.rib_out rib_out_m;
  Obs.Metrics.incr ~by:t.potential_rib_out potential_m;
  Obs.Metrics.incr ~by:t.rib_in rib_in_m;
  Obs.Metrics.incr ~by:t.no_rib_in no_rib_in_m;
  Obs.Metrics.incr ~by:t.unresolved unresolved_m;
  let coverage =
    {
      prefixes = !prefixes;
      at_least_half = !half;
      at_least_90 = !ninety;
      full = !full;
    }
  in
  { totals = t; coverage; pool = w.Matching.pool }

let evaluate model ~states data =
  Obs.Trace.with_span "predict.evaluate" @@ fun () ->
  of_walk (Matching.walk model ~states data)

let frac n report =
  if report.totals.cases = 0 then 0.0
  else float_of_int n /. float_of_int report.totals.cases

let down_to_tie_break_fraction r =
  frac (r.totals.rib_out + r.totals.potential_rib_out) r

let exact_fraction r = frac r.totals.rib_out r

let rib_in_fraction r =
  frac (r.totals.cases - r.totals.no_rib_in - r.totals.unresolved) r

let pp ppf r =
  let t = r.totals in
  let pct n = 100.0 *. frac n r in
  Format.fprintf ppf
    "@[<v>graded cases:            %d@,\
     RIB-Out match (exact):   %6.1f%%@,\
     potential RIB-Out:       %6.1f%%@,\
     down to final tie-break: %6.1f%%@,\
     RIB-In upper bound:      %6.1f%%@,\
     no RIB-In:               %6.1f%%@,"
    t.cases (pct t.rib_out) (pct t.potential_rib_out)
    (pct (t.rib_out + t.potential_rib_out))
    (pct (t.cases - t.no_rib_in - t.unresolved))
    (pct t.no_rib_in);
  if t.unresolved > 0 then
    Format.fprintf ppf "unresolved (no converged sim): %6.1f%%@,"
      (pct t.unresolved);
  let c = r.coverage in
  let cpct n =
    if c.prefixes = 0 then 0.0
    else 100.0 *. float_of_int n /. float_of_int c.prefixes
  in
  Format.fprintf ppf
    "prefixes with >=50%% of paths matched: %5.1f%%@,\
     prefixes with >=90%% of paths matched: %5.1f%%@,\
     prefixes with all paths matched:      %5.1f%%  (%d prefixes)"
    (cpct c.at_least_half) (cpct c.at_least_90) (cpct c.full) c.prefixes;
  if r.pool.Simulator.Pool.prefixes > 0 then
    Format.fprintf ppf "@,simulation: %a" Simulator.Pool.pp_stats r.pool;
  Format.fprintf ppf "@]"
