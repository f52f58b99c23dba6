(* The counters live in the metrics registry only: incremented from
   pool worker domains (the refiner's simulation closures), read back
   by [stats], so `--metrics` snapshots and the bench report agree by
   construction. *)
let warm_runs_m = Obs.Metrics.counter "warm.resumed"

let cold_runs_m = Obs.Metrics.counter "warm.cold"

let verified_m = Obs.Metrics.counter "warm.verified"

let divergences_m = Obs.Metrics.counter "warm.divergences"

let note_warm () = Obs.Metrics.incr warm_runs_m

let note_cold () = Obs.Metrics.incr cold_runs_m

let note_verified () = Obs.Metrics.incr verified_m

let note_divergence () = Obs.Metrics.incr divergences_m

type stats = {
  warm_runs : int;
  cold_runs : int;
  verified : int;
  divergences : int;
}

let stats () =
  {
    warm_runs = Obs.Metrics.counter_value warm_runs_m;
    cold_runs = Obs.Metrics.counter_value cold_runs_m;
    verified = Obs.Metrics.counter_value verified_m;
    divergences = Obs.Metrics.counter_value divergences_m;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d warm, %d cold" s.warm_runs s.cold_runs;
  if s.verified > 0 then
    Format.fprintf ppf ", %d verified (%d divergences)" s.verified s.divergences
