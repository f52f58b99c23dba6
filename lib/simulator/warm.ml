(* The counters live in the metrics registry only: incremented from
   pool worker domains (every caller's simulation closure), read back
   by [stats], so `--metrics` snapshots and the bench report agree by
   construction. *)
let warm_runs_m = Obs.Metrics.counter "warm.resumed"

let cold_runs_m = Obs.Metrics.counter "warm.cold"

let verified_m = Obs.Metrics.counter "warm.verified"

let divergences_m = Obs.Metrics.counter "warm.divergences"

let simulate ?from net ~prefix ~originators =
  let cold () =
    Obs.Metrics.incr cold_runs_m;
    Engine.simulate net ~prefix ~originators
  in
  let resume prev =
    Obs.Metrics.incr warm_runs_m;
    Engine.simulate ~from:prev net ~prefix ~originators
  in
  match (Runtime.warm (), from) with
  | Runtime.Warm_mode.Off, _ | _, None -> cold ()
  | (On | Verify), Some prev when not (Engine.resumable net prev) -> cold ()
  | On, Some prev -> resume prev
  | Verify, Some prev ->
      let warm = resume prev in
      let cold = cold () in
      Obs.Metrics.incr verified_m;
      let diverged =
        Engine.converged cold <> Engine.converged warm
        || (Engine.converged cold && not (Engine.same_state cold warm))
      in
      if diverged then begin
        Obs.Metrics.incr divergences_m;
        Logs.err (fun m ->
            m
              "warm-start divergence on prefix %a (cold %a fp=%x, warm %a \
               fp=%x)"
              Bgp.Prefix.pp prefix Engine.pp_outcome (Engine.outcome cold)
              (Engine.state_fingerprint cold)
              Engine.pp_outcome (Engine.outcome warm)
              (Engine.state_fingerprint warm))
      end;
      (* The cold state is ground truth either way. *)
      cold

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
