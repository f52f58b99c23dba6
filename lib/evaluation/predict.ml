open Bgp
module Qrmodel = Asmodel.Qrmodel
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

(* Match-grade tallies (metrics registry).  Flushed once per evaluate
   call from the computed totals, so they always agree with the
   report. *)
let cases_m = Obs.Metrics.counter "predict.cases"

let rib_out_m = Obs.Metrics.counter "predict.rib_out"

let potential_m = Obs.Metrics.counter "predict.potential_rib_out"

let rib_in_m = Obs.Metrics.counter "predict.rib_in"

let no_rib_in_m = Obs.Metrics.counter "predict.no_rib_in"

let unresolved_m = Obs.Metrics.counter "predict.unresolved"

let evaluate model ~states data =
  Obs.Trace.with_span "predict.evaluate" @@ fun () ->
  let net = model.Qrmodel.net in
  (* Batch phase: every prefix that will be graded but has no cached
     state yet is simulated up front, fanned out over the domain pool.
     Classification below then runs entirely against the cache. *)
  let missing =
    let seen = Hashtbl.create 256 in
    List.filter_map
      (fun (e : Rib.entry) ->
        let p = e.Rib.prefix in
        if Hashtbl.mem seen p then None
        else begin
          Hashtbl.add seen p ();
          match Hashtbl.find_opt states p with
          | Some _ -> None
          | None -> (
              match Qrmodel.origin_of model p with
              | None -> None
              | Some _ -> Some p)
        end)
      (Rib.entries data)
  in
  let pool =
    (Simulator.Warm.converge states net
       ~originators:(Qrmodel.originators model) missing)
      .Simulator.Warm.pool
  in
  (* Prefixes without a trustworthy converged state: their cases are
     graded [unresolved] below — an explicit "the model could not
     answer", never a false mismatch.  A prefix whose simulation failed
     has no state at all, like one without an origin; the [missing]
     prefixes tell the two apart. *)
  let unresolved_pfx : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if not (Hashtbl.mem states p) then Hashtbl.replace unresolved_pfx p ())
    missing;
  let totals =
    ref
      {
        cases = 0;
        rib_out = 0;
        potential_rib_out = 0;
        rib_in = 0;
        no_rib_in = 0;
        unresolved = 0;
      }
  in
  (* Distinct paths per prefix with their verdicts, for coverage. *)
  let per_prefix : (Prefix.t, (Aspath.t * bool) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let seen : (Prefix.t * Aspath.t, Matching.verdict) Hashtbl.t =
    Hashtbl.create 4096
  in
  List.iter
    (fun (e : Rib.entry) ->
      let p = e.Rib.prefix in
      let unresolved =
        Hashtbl.mem unresolved_pfx p
        ||
        match Hashtbl.find_opt states p with
        | Some st when not (Simulator.Engine.converged st) ->
            (* A truncated or diverged simulation answers nothing about
               this path; grading against its partial RIBs would report
               false mismatches. *)
            Hashtbl.replace unresolved_pfx p ();
            true
        | Some _ | None -> false
      in
      if unresolved then
        totals :=
          {
            !totals with
            cases = !totals.cases + 1;
            unresolved = !totals.unresolved + 1;
          }
      else
        let key = (e.Rib.prefix, e.Rib.path) in
        let verdict =
          match Hashtbl.find_opt seen key with
          | Some v -> Some v
          | None -> (
              match Hashtbl.find_opt states e.Rib.prefix with
              | None -> None
              | Some st ->
                  let v = Matching.classify net st e.Rib.path in
                  Hashtbl.add seen key v;
                  let l =
                    match Hashtbl.find_opt per_prefix e.Rib.prefix with
                    | Some l -> l
                    | None ->
                        let l = ref [] in
                        Hashtbl.add per_prefix e.Rib.prefix l;
                        l
                  in
                  l := (e.Rib.path, v = Matching.Rib_out) :: !l;
                  Some v)
        in
        match verdict with
        | None -> ()
        | Some v ->
            let t = !totals in
            totals :=
              {
                t with
                cases = t.cases + 1;
                rib_out = (t.rib_out + if v = Matching.Rib_out then 1 else 0);
                potential_rib_out =
                  (t.potential_rib_out
                  + if v = Matching.Potential_rib_out then 1 else 0);
                rib_in = (t.rib_in + if v = Matching.Rib_in then 1 else 0);
                no_rib_in =
                  (t.no_rib_in + if v = Matching.No_rib_in then 1 else 0);
              })
    (Rib.entries data);
  let coverage =
    Hashtbl.fold
      (fun _ l acc ->
        let n = List.length !l in
        let matched = List.length (List.filter snd !l) in
        let frac = float_of_int matched /. float_of_int n in
        {
          prefixes = acc.prefixes + 1;
          at_least_half = (acc.at_least_half + if frac >= 0.5 then 1 else 0);
          at_least_90 = (acc.at_least_90 + if frac >= 0.9 then 1 else 0);
          full = (acc.full + if matched = n then 1 else 0);
        })
      per_prefix
      { prefixes = 0; at_least_half = 0; at_least_90 = 0; full = 0 }
  in
  let t = !totals in
  Obs.Metrics.incr ~by:t.cases cases_m;
  Obs.Metrics.incr ~by:t.rib_out rib_out_m;
  Obs.Metrics.incr ~by:t.potential_rib_out potential_m;
  Obs.Metrics.incr ~by:t.rib_in rib_in_m;
  Obs.Metrics.incr ~by:t.no_rib_in no_rib_in_m;
  Obs.Metrics.incr ~by:t.unresolved unresolved_m;
  { totals = t; coverage; pool }

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
