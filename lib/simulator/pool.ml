let resolve_jobs = function
  | Some j -> max 1 j
  | None -> Runtime.jobs ()

type task_error = { index : int; exn : exn; backtrace : string }

type slot_timing = {
  start_us : int;
  dur_us : int;
  domain : int;
  retried : bool;
}

let batches_m = Obs.Metrics.counter "pool.batches"

let tasks_m = Obs.Metrics.counter "pool.tasks"

let retried_m = Obs.Metrics.counter "pool.retried"

let failed_m = Obs.Metrics.counter "pool.failed"

let slot_us_m = Obs.Metrics.histogram "pool.slot_us"

(* Batch scope marker for the Analysis mutation-discipline checker: the
   depth is positive while any [map_result] batch is in flight anywhere
   in the process (including its sequential retry phase — tasks must
   never mutate shared state regardless of the job count). *)
let batch_depth = Atomic.make 0

let batch_active () = Atomic.get batch_depth > 0

(* Batch ids name the per-worker happens-before channels published to
   Obs.Probe: the spawning domain releases its history before each
   Domain.spawn and re-acquires the worker's after each Domain.join,
   mirroring the real ordering those operations provide.  Channels are
   per (batch, worker) so edges never leak between batches. *)
let batch_uid = Atomic.make 0

let pp_task_error ppf e =
  Format.fprintf ppf "task %d: %s" e.index (Printexc.to_string e.exn)

(* Workers claim contiguous chunks of the input from an atomic cursor
   and write into disjoint slots of [results], so the output order (and
   hence every caller downstream) is independent of the job count.  A
   failing task writes an [Error] into its own slot and the worker moves
   on — one pathological input no longer discards the whole batch. *)
let map_result ?jobs ?on_recover ?on_slot f l =
  let input = Array.of_list l in
  let n = Array.length input in
  if n = 0 then []
  else begin
    Atomic.incr batch_depth;
    Fun.protect ~finally:(fun () -> Atomic.decr batch_depth) @@ fun () ->
    let jobs = min (resolve_jobs jobs) n in
    let f = Faultinject.wrap_tasks ~n f in
    let results = Array.make n None in
    (* Per-slot wall time, always measured (two clock reads per task
       against millisecond-scale simulations): the slot_us histogram
       and the ?on_slot hook want it whether or not tracing is on.  The
       sequential-retry path below overwrites a failed slot's timing
       with the retry attempt's, so traces never show zero-duration
       slots for retried tasks. *)
    let timing =
      Array.make n { start_us = 0; dur_us = 0; domain = 0; retried = false }
    in
    let batch_start = Obs.Trace.now_us () in
    let run_item i =
      let t0 = Obs.Trace.now_us () in
      let finish () =
        timing.(i) <-
          {
            start_us = t0;
            dur_us = Obs.Trace.now_us () - t0;
            domain = (Domain.self () :> int);
            retried = false;
          }
      in
      match f i input.(i) with
      | v ->
          finish ();
          results.(i) <- Some (Ok v)
      | exception exn ->
          let backtrace =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          finish ();
          results.(i) <- Some (Error { index = i; exn; backtrace })
    in
    if jobs = 1 then
      for i = 0 to n - 1 do
        run_item i
      done
    else begin
      let cursor = Atomic.make 0 in
      (* Small chunks keep the tail balanced when per-item cost varies
         (prefix convergence times differ by orders of magnitude). *)
      let chunk = max 1 (n / (jobs * 8)) in
      let worker () =
        let running = ref true in
        while !running do
          let start = Atomic.fetch_and_add cursor chunk in
          if start >= n then running := false
          else
            let stop = min n (start + chunk) in
            for i = start to stop - 1 do
              run_item i
            done
        done
      in
      let probing = Obs.Probe.enabled () in
      let bid = if probing then Atomic.fetch_and_add batch_uid 1 else 0 in
      let chan k dir = Printf.sprintf "pool.%d.%d.%s" bid k dir in
      let domains =
        List.init (jobs - 1) (fun k ->
            if probing then Obs.Probe.release ~chan:(chan k "spawn");
            Domain.spawn (fun () ->
                if probing then Obs.Probe.acquire ~chan:(chan k "spawn");
                worker ();
                if probing then Obs.Probe.release ~chan:(chan k "join")))
      in
      worker ();
      List.iteri
        (fun k d ->
          Domain.join d;
          if probing then Obs.Probe.acquire ~chan:(chan k "join"))
        domains
    end;
    (* One sequential retry for every failed slot, after all domains
       have joined: rules out Domain-interaction effects and recovers
       transient faults before anything is reported upward. *)
    for i = 0 to n - 1 do
      match results.(i) with
      | Some (Ok _) -> ()
      | Some (Error _) -> (
          let t0 = Obs.Trace.now_us () in
          let finish () =
            timing.(i) <-
              {
                start_us = t0;
                dur_us = Obs.Trace.now_us () - t0;
                domain = (Domain.self () :> int);
                retried = true;
              }
          in
          match f i input.(i) with
          | v ->
              finish ();
              results.(i) <- Some (Ok v);
              Obs.Metrics.incr retried_m;
              (match on_recover with Some g -> g i | None -> ())
          | exception exn ->
              let backtrace =
                Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
              in
              finish ();
              results.(i) <- Some (Error { index = i; exn; backtrace }))
      | None -> assert false (* every slot is written by exactly one worker *)
    done;
    Obs.Metrics.incr batches_m;
    Obs.Metrics.incr ~by:n tasks_m;
    let traced = Obs.Trace.enabled () in
    Array.iteri
      (fun i t ->
        Obs.Metrics.observe slot_us_m t.dur_us;
        (match results.(i) with
        | Some (Error _) -> Obs.Metrics.incr failed_m
        | Some (Ok _) | None -> ());
        (match on_slot with Some g -> g i t | None -> ());
        if traced then
          Obs.Trace.emit
            ~args:
              (("index", string_of_int i)
              :: (if t.retried then [ ("retried", "true") ] else []))
            ~tid:t.domain ~name:"pool.slot" ~ts_us:t.start_us ~dur_us:t.dur_us
            ())
      timing;
    if traced then
      Obs.Trace.emit
        ~args:[ ("tasks", string_of_int n); ("jobs", string_of_int jobs) ]
        ~name:"pool.map" ~ts_us:batch_start
        ~dur_us:(Obs.Trace.now_us () - batch_start)
        ();
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let map ?jobs f l =
  List.map
    (function
      | Ok v -> v
      | Error { index; exn; _ } ->
          Logs.err (fun m ->
              m "Pool.map: input %d failed after retry: %s" index
                (Printexc.to_string exn));
          raise exn)
    (map_result ?jobs f l)

type stats = {
  jobs : int;
  prefixes : int;
  events : int;
  non_converged : int;
  diverged : int;
  retried : int;
  failed : int;
  wall : float;
}

let zero =
  {
    jobs = 0;
    prefixes = 0;
    events = 0;
    non_converged = 0;
    diverged = 0;
    retried = 0;
    failed = 0;
    wall = 0.0;
  }

let merge a b =
  {
    jobs = max a.jobs b.jobs;
    prefixes = a.prefixes + b.prefixes;
    events = a.events + b.events;
    non_converged = a.non_converged + b.non_converged;
    diverged = a.diverged + b.diverged;
    retried = a.retried + b.retried;
    failed = a.failed + b.failed;
    wall = a.wall +. b.wall;
  }

let simulate_result ?jobs ~sim ~run prefixes =
  let jobs = resolve_jobs jobs in
  let t0 = Obs.Trace.now_us () in
  let retried = ref 0 in
  let results =
    map_result ~jobs ~on_recover:(fun _ -> incr retried) sim prefixes
  in
  let wall = float_of_int (Obs.Trace.now_us () - t0) /. 1e6 in
  let stats =
    List.fold_left
      (fun acc r ->
        let acc = { acc with prefixes = acc.prefixes + 1 } in
        match r with
        | Ok v ->
            let outcome, events = run v in
            {
              acc with
              events = acc.events + events;
              non_converged =
                (acc.non_converged
                + if outcome = Engine.Converged then 0 else 1);
              diverged =
                (acc.diverged
                + match outcome with
                  | Engine.Diverged _ -> 1
                  | Engine.Converged | Engine.Truncated _ -> 0);
            }
        | Error _ -> { acc with failed = acc.failed + 1 })
      { zero with jobs; wall; retried = !retried }
      results
  in
  (List.combine prefixes results, stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "%d prefixes on %d jobs: %d events, %d non-converged, %.2fs wall"
    s.prefixes s.jobs s.events s.non_converged s.wall;
  if s.diverged > 0 then Format.fprintf ppf ", %d diverged" s.diverged;
  if s.retried > 0 then Format.fprintf ppf ", %d retried" s.retried;
  if s.failed > 0 then Format.fprintf ppf ", %d failed" s.failed
