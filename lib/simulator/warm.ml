open Bgp

(* The counters live in the metrics registry only: incremented from
   pool worker domains (every caller's simulation closure), read back
   by [stats], so `--metrics` snapshots and the bench report agree by
   construction. *)
let warm_runs_m = Obs.Metrics.counter "warm.resumed"

let cold_runs_m = Obs.Metrics.counter "warm.cold"

let verified_m = Obs.Metrics.counter "warm.verified"

let divergences_m = Obs.Metrics.counter "warm.divergences"

(* A batch's own resume and divergence counts, bumped from its worker
   domains alongside the registry's. *)
type counts = { resumed : int Atomic.t; diverged : int Atomic.t }

(* Simulate [prefix] under the [Runtime.warm] mode, resuming from
   [from] where the mode and [Engine.resumable] allow.  Runs in pool
   worker domains.  A [Verify] pair counts one resume and one cold run,
   one [warm.verified] and, when the pair's convergence differs or two
   converged states fail [Engine.same_state], one [warm.divergences]. *)
let simulate counts ?from net ~prefix ~originators =
  let cold () =
    Obs.Metrics.incr cold_runs_m;
    Engine.simulate net ~prefix ~originators
  in
  let resume prev =
    Obs.Metrics.incr warm_runs_m;
    Atomic.incr counts.resumed;
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
        Atomic.incr counts.diverged;
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

type table = (Prefix.t, Engine.state) Hashtbl.t

let quarantined table prefix =
  match Hashtbl.find_opt table prefix with
  | Some st -> not (Engine.converged st)
  | None -> true

type batch = {
  results : (Prefix.t * (Engine.state, Pool.task_error) result) list;
  pool : Pool.stats;
  resumed : int;
  divergences : int;
}

let converge table net ~originators prefixes =
  let counts = { resumed = Atomic.make 0; diverged = Atomic.make 0 } in
  (* Runs in pool worker domains: the table is only read here, and
     written below, after every worker has joined. *)
  let sim prefix =
    simulate counts ?from:(Hashtbl.find_opt table prefix) net ~prefix
      ~originators:(originators prefix)
  in
  let results, pool =
    Pool.simulate_result ~sim
      ~run:(fun st -> (Engine.outcome st, Engine.events st))
      prefixes
  in
  List.iter
    (fun (prefix, r) ->
      (* The new state reflects every policy edit made so far, and a
         prefix left without a converged one runs cold next time: either
         way the touched set has nothing left to replay. *)
      Net.clear_touched net prefix;
      match r with
      | Ok st -> Hashtbl.replace table prefix st
      | Error e ->
          Hashtbl.remove table prefix;
          Logs.warn (fun m ->
              m "warm: simulation of prefix %a failed after retry: %a"
                Prefix.pp prefix Pool.pp_task_error e))
    results;
  {
    results;
    pool;
    resumed = Atomic.get counts.resumed;
    divergences = Atomic.get counts.diverged;
  }

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
