open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Pool = Simulator.Pool
module Warm = Simulator.Warm
module Runtime = Simulator.Runtime
module Qrmodel = Asmodel.Qrmodel

type ranking = Med_ranking | Lpref_ranking | No_ranking

type options = {
  max_iterations : int option;
  max_quasi_routers : int;
  ranking : ranking;
}

let default_options =
  {
    max_iterations = None;
    max_quasi_routers = max_int;
    ranking = Med_ranking;
  }

type iter_stat = {
  iteration : int;
  matched : int;
  total : int;
  filters_added : int;
  med_rules_added : int;
  duplications : int;
  filter_deletions : int;
  prefixes_changed : int;
  quarantined : int;
  pool : Pool.stats;
}

type result = {
  model : Qrmodel.t;
  iterations : int;
  converged : bool;
  matched : int;
  total : int;
  history : iter_stat list;
  states : Warm.table;
  unstable_prefixes : int;
  quarantined_prefixes : int;
  pool : Pool.stats;
}

let compare_suffix a b =
  let c = Stdlib.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else Stdlib.compare a b

let training_suffixes data =
  Prefix.Map.fold
    (fun prefix entries acc ->
      let set =
        List.fold_left
          (fun set e ->
            let arr = Aspath.to_array e.Rib.path in
            let n = Array.length arr in
            let rec add i set =
              if i >= n then set
              else add (i + 1) ((Array.sub arr i (n - i)) :: set)
            in
            add 0 set)
          [] entries
        |> List.sort_uniq compare_suffix
        (* The tail (suffix minus its head AS) is what every matching
           and policy step consumes; slice it once here instead of on
           every iteration of the refinement loop. *)
        |> List.map (fun s -> (s, Array.sub s 1 (Array.length s - 1)))
      in
      (prefix, set) :: acc)
    (Rib.by_prefix data) []
  |> List.rev

(* Mutable per-run counters, threaded through the helpers. *)
type counters = {
  mutable filters : int;
  mutable meds : int;
  mutable dups : int;
  mutable deletions : int;
}

(* Make [receiver] select the route with path [tail] for [prefix].

   With the paper's MED ranking (§4.6): MED 0 on the desired sessions,
   clear MED on rivals, filter strictly shorter rivals at their
   announcers, and make sure the desired announcers are not filtered
   towards [receiver] (undoes stale copied filters on duplicates).

   With LOCAL_PREF ranking (the paper's abandoned first attempt): a
   per-prefix preference on the desired sessions instead; no filters,
   since LOCAL_PREF already beats path length — the very property that
   makes this mode divergence-prone.

   With no ranking (the ablation): the filters alone. *)
let apply_policies net counters ~options ~prefix ~receiver ~desired_sessions
    ~rib_entries ~tail =
  let desired s = List.mem s desired_sessions in
  let use_med = options.ranking = Med_ranking in
  let use_lpref = options.ranking = Lpref_ranking in
  List.iter
    (fun s ->
      if use_med then begin
        if Net.import_med net receiver s prefix <> Some 0 then begin
          Net.set_import_med net receiver s prefix 0;
          counters.meds <- counters.meds + 1
        end
      end
      else if use_lpref then begin
        if Net.import_lpref_for net receiver s prefix <> Some 200 then begin
          Net.set_import_lpref_for net receiver s prefix 200;
          counters.meds <- counters.meds + 1
        end
      end;
      let sender = Net.session_peer net receiver s in
      let sender_side = Net.session_reverse net receiver s in
      if Net.export_denied net sender sender_side prefix then begin
        Net.allow_export net sender sender_side prefix;
        counters.deletions <- counters.deletions + 1
      end)
    desired_sessions;
  List.iter
    (fun (s, (r : Simulator.Rattr.t)) ->
      if not (desired s) then begin
        if use_med && Net.import_med net receiver s prefix <> None then
          Net.clear_import_med net receiver s prefix;
        if use_lpref && Net.import_lpref_for net receiver s prefix <> None then
          Net.clear_import_lpref_for net receiver s prefix;
        if
          (not use_lpref)
          && Array.length r.Simulator.Rattr.path < Array.length tail
        then begin
          let sender = Net.session_peer net receiver s in
          let sender_side = Net.session_reverse net receiver s in
          if not (Net.export_denied net sender sender_side prefix) then begin
            Net.deny_export net sender sender_side prefix;
            counters.filters <- counters.filters + 1
          end
        end
      end)
    rib_entries

(* Refinement progress metrics: per-iteration counters plus gauges for
   the two "how close are we" levels a live snapshot should show. *)
let iterations_m = Obs.Metrics.counter "refiner.iterations"

let prefixes_changed_m = Obs.Metrics.counter "refiner.prefixes_changed"

let discrepancies_m = Obs.Metrics.gauge "refiner.discrepancies"

let quarantine_m = Obs.Metrics.gauge "refiner.quarantine"

let refine ?(options = default_options) ?on_iteration model ~training =
  (* Honour RD_CHECK: resolve the mode once (installing the checker's
     hooks when on) and remember the finding watermark so the
     self-check below only reports this run's. *)
  Analysis.Ownership.ensure ();
  let refine_span = Obs.Trace.begin_span "refiner.refine" in
  let findings_before = Analysis.Ownership.count () in
  let net = model.Qrmodel.net in
  let work = training_suffixes training in
  let total =
    List.fold_left (fun acc (_, sfx) -> acc + List.length sfx) 0 work
  in
  let max_len =
    List.fold_left
      (fun acc (_, sfx) ->
        List.fold_left (fun acc (s, _) -> max acc (Array.length s)) acc sfx)
      1 work
  in
  let max_iterations =
    match options.max_iterations with
    | Some n -> n
    | None -> (6 * max_len) + 4
  in
  let states : Warm.table = Hashtbl.create (List.length work) in
  let dirty : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let originators = Qrmodel.originators model in
  (* Phased loop: the set of prefixes needing re-simulation is fixed at
     the top of each iteration (a prefix marked dirty mid-iteration is
     only re-simulated the NEXT iteration), so all of them can be
     simulated in parallel against the frozen network before any policy
     mutation happens.  {!Warm.converge} resumes each from its previous
     state where the RD_WARM mode allows; the first iteration runs
     cold. *)
  let pool_total = ref Pool.zero in
  (* Quarantine: a prefix with no converged state (budget truncation,
     detected oscillation, or a failed simulation) is withheld from
     policy mutation — mutating against a partial RIB would bake wrong
     filters into the model.  Every iteration retries it against the
     then-current network (duplications made for other prefixes can
     unblock it); it leaves quarantine the moment a retry converges. *)
  let quarantined = Warm.quarantined states in
  let count_quarantined () =
    List.length (List.filter (fun (p, _) -> quarantined p) work)
  in
  let presimulate () =
    let missing =
      List.filter_map
        (fun (prefix, _) ->
          if Hashtbl.mem dirty prefix || quarantined prefix then Some prefix
          else None)
        work
    in
    let batch = Warm.converge states net ~originators missing in
    Hashtbl.reset dirty;
    pool_total := Pool.merge !pool_total batch.Warm.pool;
    batch.Warm.pool
  in
  let history = ref [] in
  let iteration = ref 0 in
  let finished = ref false in
  while (not !finished) && !iteration < max_iterations do
    incr iteration;
    let iter_span =
      Obs.Trace.begin_span
        ~args:[ ("iteration", string_of_int !iteration) ]
        "refiner.iteration"
    in
    let pool_stats = presimulate () in
    let counters = { filters = 0; meds = 0; dups = 0; deletions = 0 } in
    let matched = ref 0 in
    let prefixes_changed = ref 0 in
    List.iter
      (fun (prefix, suffixes) ->
        if quarantined prefix then ()
        else begin
        (* [presimulate] left every prefix outside quarantine a
           converged, clean state. *)
        let st = Hashtbl.find states prefix in
        let reserved = Hashtbl.create 8 in
        let reserve n = Hashtbl.replace reserved n () in
        let unreserved n = not (Hashtbl.mem reserved n) in
        let changed = ref false in
        List.iter
          (fun (suffix, tail) ->
            let asn = suffix.(0) in
            if not (Topology.Asgraph.mem_node model.Qrmodel.graph asn) then ()
            else if Array.length tail = 0 then begin
              (* The origin itself: every quasi-router originates. *)
              match Matching.nodes_selecting net st asn [||] with
              | n :: _ ->
                  reserve n;
                  incr matched
              | [] -> ()
            end
            else begin
              match
                List.filter unreserved (Matching.nodes_selecting net st asn tail)
              with
              | n :: _ ->
                  reserve n;
                  incr matched
              | [] -> (
                  let receiving = Matching.nodes_receiving net st asn tail in
                  match List.filter (fun (n, _) -> unreserved n) receiving with
                  | (q, sessions) :: _ ->
                      apply_policies net counters ~options ~prefix ~receiver:q
                        ~desired_sessions:sessions
                        ~rib_entries:(Engine.rib_in st q) ~tail;
                      reserve q;
                      changed := true
                  | [] -> (
                      match receiving with
                      | (q0, sessions0) :: _ ->
                          if
                            Qrmodel.quasi_router_count model asn
                            < options.max_quasi_routers
                          then begin
                            let q2 = Net.duplicate_node net q0 in
                            counters.dups <- counters.dups + 1;
                            (* The duplicate's session i mirrors q0's
                               session i, so q0's RIB-In describes what
                               q2 will receive. *)
                            apply_policies net counters ~options ~prefix
                              ~receiver:q2 ~desired_sessions:sessions0
                              ~rib_entries:(Engine.rib_in st q0) ~tail;
                            reserve q2;
                            changed := true
                          end
                      | [] ->
                          (* No RIB-In anywhere: if the announcing
                             neighbour AS selects its sub-path, delete
                             egress filters blocking the prefix towards
                             this AS (Figure 7); otherwise wait for a
                             later iteration. *)
                          let neighbour = tail.(0) in
                          let sub_tail =
                            Array.sub tail 1 (Array.length tail - 1)
                          in
                          List.iter
                            (fun nb ->
                              List.iter
                                (fun (s, peer) ->
                                  if
                                    Net.asn_of net peer = asn
                                    && Net.export_denied net nb s prefix
                                  then begin
                                    Net.allow_export net nb s prefix;
                                    counters.deletions <-
                                      counters.deletions + 1;
                                    changed := true
                                  end)
                                (Net.sessions_of net nb))
                            (Matching.nodes_selecting net st neighbour
                               sub_tail)))
            end)
          suffixes;
        if !changed then begin
          Hashtbl.replace dirty prefix ();
          incr prefixes_changed
        end
        end)
      work;
    let n_quarantined = count_quarantined () in
    let stat =
      {
        iteration = !iteration;
        matched = !matched;
        total;
        filters_added = counters.filters;
        med_rules_added = counters.meds;
        duplications = counters.dups;
        filter_deletions = counters.deletions;
        prefixes_changed = !prefixes_changed;
        quarantined = n_quarantined;
        pool = pool_stats;
      }
    in
    history := stat :: !history;
    Obs.Metrics.incr iterations_m;
    Obs.Metrics.incr ~by:!prefixes_changed prefixes_changed_m;
    Obs.Metrics.set_gauge discrepancies_m (total - !matched);
    Obs.Metrics.set_gauge quarantine_m n_quarantined;
    Obs.Trace.end_span
      ~args:
        [
          ("matched", string_of_int !matched);
          ("changed", string_of_int !prefixes_changed);
          ("quarantined", string_of_int n_quarantined);
        ]
      iter_span;
    (match on_iteration with Some f -> f stat | None -> ());
    if !prefixes_changed = 0 then finished := true
  done;
  (* Final states and final match count over fresh simulations, again
     fanned out over the pool (the network no longer changes).  A
     prefix whose final simulation failed loses its state, so
     downstream consumers (prediction, inspection) see it as unresolved
     rather than as a leftover of an earlier network. *)
  let final = Warm.converge states net ~originators (List.map fst work) in
  pool_total := Pool.merge !pool_total final.Warm.pool;
  let unstable = final.Warm.pool.Pool.non_converged in
  let final_quarantined = count_quarantined () in
  let final_matched = ref 0 in
  List.iter
    (fun (prefix, suffixes) ->
      match Hashtbl.find_opt states prefix with
      | None -> () (* quarantined: its suffixes count as unmatched *)
      | Some st ->
          let reserved = Hashtbl.create 8 in
          List.iter
            (fun (suffix, tail) ->
              let asn = suffix.(0) in
              match
                List.filter
                  (fun n -> not (Hashtbl.mem reserved n))
                  (Matching.nodes_selecting net st asn tail)
              with
              | n :: _ ->
                  Hashtbl.replace reserved n ();
                  incr final_matched
              | [] -> ())
            suffixes)
    work;
  (* Post-refinement self-check (RD_CHECK=on): surface any checker
     findings (races, mutation-discipline violations) recorded during
     this run and lint the model we just built — a malformed refined
     model means the run's results cannot be trusted, so it is reported
     loudly (but not raised: the checker observes, callers and CI
     decide). *)
  (match Analysis.Ownership.current () with
  | Runtime.Check_mode.Off -> ()
  | On ->
      let fresh = Analysis.Ownership.count () - findings_before in
      if fresh > 0 then
        Logs.err (fun m ->
            m "refiner: %d RD_CHECK finding(s) during refinement" fresh);
      let report = Analysis.Lint.check model in
      if not (Analysis.Report.is_clean report) then
        Logs.err (fun m ->
            m "refiner: refined model fails lint:@.%a" Analysis.Report.pp
              report));
  Obs.Metrics.set_gauge discrepancies_m (total - !final_matched);
  Obs.Metrics.set_gauge quarantine_m final_quarantined;
  Obs.Trace.end_span
    ~args:
      [
        ("iterations", string_of_int !iteration);
        ("matched", string_of_int !final_matched);
        ("total", string_of_int total);
      ]
    refine_span;
  {
    model;
    iterations = !iteration;
    converged = !final_matched = total;
    matched = !final_matched;
    total;
    history = List.rev !history;
    states;
    unstable_prefixes = unstable;
    quarantined_prefixes = final_quarantined;
    pool = !pool_total;
  }
