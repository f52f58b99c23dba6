(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §5 for the experiment index) and the
   sections CI gates on.

   Usage: dune exec bench/main.exe [-- options]
     --quick       run everything on a ~1/3-size world
     --scale F     world scale factor (default 1.0)
     --seed N      world seed (default 42)
     --jobs N      simulation worker domains (default: RD_JOBS or core count)
     --faults S    fault injection RATE:SEED[:full] (default: RD_FAULTS)
     --warm M      warm-start mode off|on|verify (default: RD_WARM or on)
     --check M     race detector + mutation audit off|on (default: RD_CHECK)
     --trace M     tracing off|summary|FILE.json (default: RD_TRACE)
                   (these knob flags are Simulator.Runtime's; README.md
                   "Runtime knobs" has the full table)
     --warm-only   only run the WARM, SERVE and CHURN sections
                     (SERVE holds the CI wall-time gates; the off-mode cost
                     of RD_CHECK and RD_TRACE is checked by dune runtest)
     --scale-only  only run the SCALE flat-vs-reference engine experiment
     --scale-ases N  AS count of the SCALE world (>= 50; default 5000,
                     1500 with --quick)
     --topo-only   only run the TOPO topology-fidelity battery across
                     generator families (graph-level, fast CI path)
     --topo-ases N   AS count of the TOPO worlds (>= 50; default 500)
     --robust-only only run the R1 family x seed refiner-robustness matrix
     --robust-ases N AS count of the R1 worlds (>= 50; default
                     max 50 (round (500 x scale)): 500 at the default
                     scale)
     --json FILE   machine-readable results (default: BENCH.json)
     --sweep       add the accuracy-vs-vantage-points sweep (slow)

   Labelled blocks are Obs.Trace spans: RD_TRACE=summary prints their
   totals at exit. *)

open Bgp

let std = Format.std_formatter

let section = Evaluation.Report.section std

module Json = Serve.Json

let span = Obs.Trace.with_span

(* [f ()] and its wall-clock in seconds, for the numbers a printed table
   or a gate needs. *)
let wall f =
  let t0 = Obs.Trace.now_us () in
  let r = f () in
  (r, float_of_int (Obs.Trace.now_us () - t0) /. 1e6)

(* How the what-if warm/cold gate measures its pair of workloads: three
   interleaved rounds, so slow drift (frequency scaling, co-tenants)
   hits both alike, each run from a settled heap, keeping each side's
   fastest wall. *)
let fastest_of_three (a, b) =
  let run f =
    Gc.full_major ();
    snd (wall f)
  in
  let wa = ref infinity and wb = ref infinity in
  for _ = 1 to 3 do
    wa := Float.min !wa (run a);
    wb := Float.min !wb (run b)
  done;
  (!wa, !wb)

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

module Runtime = Simulator.Runtime

(* Run [f] under the ambient knobs as changed by [update], restoring
   them afterwards.  [Ownership.ensure] brings the RD_CHECK hook in line
   with the check field both ways. *)
let with_runtime update f =
  let prior = Runtime.current () in
  let apply rt =
    Runtime.set rt;
    Analysis.Ownership.ensure ()
  in
  apply (update prior);
  Fun.protect ~finally:(fun () -> apply prior) f

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)
(* ------------------------------------------------------------------ *)

let experiment_f2_t1 data =
  section "F2" "distinct AS-paths per (origin AS, observation AS) pair (Figure 2)";
  let hist = Topology.Diversity.pair_path_histogram data in
  Evaluation.Report.int_series std ~x:"#distinct-paths" ~y:"#AS-pairs" hist;
  Format.printf "pairs with >1 distinct path: %.1f%%  (paper: >30%%)@."
    (100.0 *. Topology.Diversity.fraction_pairs_with_diversity data);
  Format.printf
    "prefixes-per-path histogram (log-binned; paper: linear on log-log):@.";
  Evaluation.Report.table std ~header:[ "prefixes/path"; "#paths" ]
    (List.map
       (fun (lo, hi, n) ->
         [
           (if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi);
           string_of_int n;
         ])
       (Evaluation.Quantiles.log_binned
          (Topology.Diversity.prefixes_per_path_histogram data)));
  section "T1" "max #unique AS-paths an AS receives for any prefix (Table 1)";
  Evaluation.Report.table std
    ~header:[ "percentile"; "measured"; "paper" ]
    (List.map2
       (fun (p, v) paper ->
         [ Printf.sprintf "%.0f%%" p; string_of_int v; string_of_int paper ])
       (Topology.Diversity.table1_quantiles data)
       [ 2; 5; 7; 10; 13 ])

let experiment_inflation prepared =
  section "INF" "path inflation of observed routes vs graph distance ([12])";
  let report =
    Topology.Inflation.analyze prepared.Core.full_graph
      (Rib.all_paths prepared.Core.data)
  in
  Format.printf "%a@." Topology.Inflation.pp report

let pp_breakdown_rows label (b : Evaluation.Agreement.breakdown) =
  [
    [
      label;
      "agree";
      Printf.sprintf "%.1f%%"
        (pct b.Evaluation.Agreement.agree b.Evaluation.Agreement.cases);
    ];
    [
      "";
      "not available";
      Printf.sprintf "%.1f%%"
        (pct b.Evaluation.Agreement.not_available b.Evaluation.Agreement.cases);
    ];
  ]
  @ List.map
      (fun (step, n) ->
        [
          "";
          Simulator.Decision.step_to_string step;
          Printf.sprintf "%.1f%%" (pct n b.Evaluation.Agreement.cases);
        ])
      b.Evaluation.Agreement.by_step

let experiment_t2 prepared =
  section "T2" "single-router-per-AS baselines (Table 2)";
  let shortest =
    span "T2a simulate" (fun () -> Core.baseline_shortest_path prepared)
  in
  let rels = Core.infer_relationships prepared in
  Format.printf "inferred relationships: %a@." Topology.Relationships.pp_counts
    (Topology.Relationships.counts rels);
  let policies =
    span "T2b simulate" (fun () -> Core.baseline_policies prepared)
  in
  Evaluation.Report.table std
    ~header:[ "model"; "criterion"; "measured" ]
    (pp_breakdown_rows "shortest path" shortest
    @ pp_breakdown_rows "inferred policies" policies);
  Format.printf
    "paper: shortest-path agrees 23.5%% (49.4%% not available, 4.7%% shorter \
     path,@.22.2%% tie-break); policies agree 12.5%% (54.5%% not available) — \
     policies@.perform WORSE than shortest path, which this world should \
     reproduce in shape.@.";
  (shortest, policies)

let experiment_train_predict prepared ~seed =
  let splits = Core.split ~seed prepared in
  section "T3" "training-set convergence of the iterative refinement (§5)";
  Format.printf "%a@." Evaluation.Split.pp splits;
  let result =
    span "refinement" (fun () ->
        Core.build prepared ~training:splits.Evaluation.Split.training)
  in
  let r = result in
  let filters, meds =
    Simulator.Net.count_policies r.Refine.Refiner.model.Asmodel.Qrmodel.net
  in
  Evaluation.Report.kv std
    [
      ("iterations", string_of_int r.Refine.Refiner.iterations);
      ( "training RIB-Out matched",
        Printf.sprintf "%d/%d (%.1f%%)" r.Refine.Refiner.matched
          r.Refine.Refiner.total
          (pct r.Refine.Refiner.matched r.Refine.Refiner.total) );
      ("converged (paper: exact match)", string_of_bool r.Refine.Refiner.converged);
      ( "quasi-routers",
        Printf.sprintf "%d (for %d ASes)"
          (Asmodel.Qrmodel.total_quasi_routers r.Refine.Refiner.model)
          (Topology.Asgraph.num_nodes prepared.Core.graph) );
      ("filter rules", string_of_int filters);
      ("MED ranking rules", string_of_int meds);
      ( "simulation pool",
        Format.asprintf "%a" Simulator.Pool.pp_stats r.Refine.Refiner.pool );
    ];
  section "F9" "training match rate per iteration (§5 convergence series)";
  Evaluation.Report.table std
    ~header:
      [
        "iteration"; "matched"; "%"; "+filters"; "+med"; "+quasi-routers";
        "deletions"; "sims"; "sim wall";
      ]
    (List.map
       (fun (h : Refine.Refiner.iter_stat) ->
         [
           string_of_int h.Refine.Refiner.iteration;
           string_of_int h.Refine.Refiner.matched;
           Printf.sprintf "%.1f" (pct h.Refine.Refiner.matched h.Refine.Refiner.total);
           string_of_int h.Refine.Refiner.filters_added;
           string_of_int h.Refine.Refiner.med_rules_added;
           string_of_int h.Refine.Refiner.duplications;
           string_of_int h.Refine.Refiner.filter_deletions;
           string_of_int h.Refine.Refiner.pool.Simulator.Pool.prefixes;
           Printf.sprintf "%.2fs" h.Refine.Refiner.pool.Simulator.Pool.wall;
         ])
       r.Refine.Refiner.history);
  section "F8" "quasi-routers per AS after refinement (§5)";
  let hist = Asmodel.Qrmodel.quasi_router_histogram r.Refine.Refiner.model in
  Evaluation.Report.int_series std ~x:"quasi-routers" ~y:"#ASes" hist;
  let sample =
    List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) hist
    |> Array.of_list
  in
  Evaluation.Report.table std ~header:[ "percentile"; "quasi-routers" ]
    (List.map
       (fun (p, v) -> [ Printf.sprintf "%.0f%%" p; string_of_int v ])
       (Evaluation.Quantiles.percentiles sample [ 50.0; 75.0; 90.0; 99.0; 100.0 ]));
  section "T4" "prediction of held-out observation points (§5 headline)";
  let prediction =
    span "prediction" (fun () ->
        Core.evaluate result ~validation:splits.Evaluation.Split.validation)
  in
  Format.printf "%a@." Evaluation.Predict.pp prediction;
  Format.printf
    "paper headline: >80%% of test cases match down to the final tie-break@.\
     (1,300 vantage points; accuracy grows with vantage-point density).@.";
  section "G1" "policy granularity of the refined model (follow-up work)";
  Format.printf "%a@." Evaluation.Granularity.pp
    (Evaluation.Granularity.analyze result.Refine.Refiner.model);
  section "C1" "model compression (merge behaviourally-identical quasi-routers)";
  (match
     span "compact+verify" (fun () ->
         Refine.Compress.compact_verified result.Refine.Refiner.model
           ~against:splits.Evaluation.Split.training)
   with
  | Some (_compacted, stats) ->
      Evaluation.Report.kv std
        [
          ( "quasi-routers",
            Printf.sprintf "%d -> %d" stats.Refine.Compress.nodes_before
              stats.Refine.Compress.nodes_after );
          ( "sessions",
            Printf.sprintf "%d -> %d" stats.Refine.Compress.sessions_before
              stats.Refine.Compress.sessions_after );
          ("training exactness preserved", "yes");
        ]
  | None ->
      Format.printf
        "compaction would lose training matches on this model; kept original@.");
  section "I1" "incremental extension with newly observed paths (4.7)";
  (* New observations arrive for one prefix (its held-out validation
     paths); fit them into the already-refined model without touching
     the rest. *)
  (let validation = splits.Evaluation.Split.validation in
   let by_prefix = Rib.by_prefix validation in
   let best =
     Prefix.Map.fold
       (fun p entries acc ->
         match acc with
         | Some (_, n) when n >= List.length entries -> acc
         | _ -> Some (p, List.length entries))
       by_prefix None
   in
   match best with
   | None -> Format.printf "validation set empty@."
   | Some (p, _) ->
       (* Fit the union of everything known about p: training paths
          must stay satisfied while the new ones are added. *)
       let one_prefix =
         Rib.of_entries
           (Prefix.Map.find p by_prefix
           @ Rib.paths_for_prefix splits.Evaluation.Split.training p)
       in
       let outcome =
         span "fit new observations" (fun () ->
             Refine.Incremental.add_observations result.Refine.Refiner.model
               one_prefix)
       in
       (* Spot-check that the rest of the training data kept its exact
          matches (full verification would re-simulate every prefix). *)
       let sample =
         Rib.entries splits.Evaluation.Split.training
         |> List.filteri (fun i _ -> i mod 977 = 0)
         |> Rib.of_entries
       in
       let check =
         Refine.Verify.verify result.Refine.Refiner.model
           ~states:(Hashtbl.create 64) sample
       in
       Evaluation.Report.kv std
         [
           ("prefix", Prefix.to_string p);
           ("new observed paths fitted", string_of_int (Rib.size one_prefix));
           ( "fit exact",
             string_of_bool outcome.Refine.Incremental.result.Refine.Refiner.converged );
           ("new quasi-routers", string_of_int outcome.Refine.Incremental.new_quasi_routers);
           ( "filters added/removed",
             Printf.sprintf "+%d/-%d"
               outcome.Refine.Incremental.filters.Refine.Incremental.added
               outcome.Refine.Incremental.filters.Refine.Incremental.removed );
           ( "MED rules added/removed",
             Printf.sprintf "+%d/-%d"
               outcome.Refine.Incremental.med_rules.Refine.Incremental.added
               outcome.Refine.Incremental.med_rules.Refine.Incremental.removed );
           ( "training sample still exact",
             Printf.sprintf "%d/%d" check.Refine.Verify.exact
               check.Refine.Verify.checked );
         ]);
  (result, prediction)

let experiment_t5 prepared ~seed =
  section "T5" "prediction for previously unconsidered prefixes (§4.7: origin split)";
  let splits = Core.split ~by_origin:true ~seed prepared in
  Format.printf "%a@." Evaluation.Split.pp splits;
  let result =
    span "refinement (origin split)" (fun () ->
        Core.build prepared ~training:splits.Evaluation.Split.training)
  in
  Format.printf "training converged: %b (%d/%d)@." result.Refine.Refiner.converged
    result.Refine.Refiner.matched result.Refine.Refiner.total;
  let prediction =
    Core.evaluate result ~validation:splits.Evaluation.Split.validation
  in
  Format.printf "%a@." Evaluation.Predict.pp prediction

let experiment_t6 prepared ~seed =
  section "T6" "combined split: unseen vantage points AND unseen origins (4.2)";
  let splits = Evaluation.Split.combined ~seed prepared.Core.data in
  Format.printf "%a@." Evaluation.Split.pp splits;
  let result =
    span "refinement (combined split)" (fun () ->
        Core.build prepared ~training:splits.Evaluation.Split.training)
  in
  Format.printf "training converged: %b (%d/%d)@." result.Refine.Refiner.converged
    result.Refine.Refiner.matched result.Refine.Refiner.total;
  let prediction =
    Core.evaluate result ~validation:splits.Evaluation.Split.validation
  in
  Format.printf "%a@." Evaluation.Predict.pp prediction

let experiment_ablations conf =
  (* Ablations run on their own (smaller) world so that the runtime
     stays reasonable even in full mode. *)
  let prepared = Core.prepare (snd (Core.generate ~conf ())) in
  let splits = Core.split ~seed:7 prepared in
  let training = splits.Evaluation.Split.training in
  let validation = splits.Evaluation.Split.validation in
  let grade label options =
    let result =
      span label (fun () -> Core.build ~options prepared ~training)
    in
    let prediction = Core.evaluate result ~validation in
    ( label,
      result.Refine.Refiner.matched,
      result.Refine.Refiner.total,
      Asmodel.Qrmodel.total_quasi_routers result.Refine.Refiner.model,
      result.Refine.Refiner.unstable_prefixes,
      prediction )
  in
  let full =
    grade "A0 full heuristic"
      { Refine.Refiner.default_options with max_iterations = Some 14 }
  in
  let single =
    grade "A1 single quasi-router"
      {
        Refine.Refiner.default_options with
        max_iterations = Some 14;
        max_quasi_routers = 1;
      }
  in
  let nomed =
    grade "A2 filters only (no MED)"
      {
        Refine.Refiner.default_options with
        max_iterations = Some 14;
        ranking = Refine.Refiner.No_ranking;
      }
  in
  let lpref =
    (* The paper's abandoned first attempt (§4.6): per-prefix LOCAL_PREF
       ranking.  Expect divergence ("unstable" > 0) on policy-rich
       worlds — the negative result that drove the MED design. *)
    grade "A3 local-pref ranking (abandoned by paper)"
      {
        Refine.Refiner.default_options with
        max_iterations = Some 14;
        ranking = Refine.Refiner.Lpref_ranking;
      }
  in
  section "A1-A3" "ablations: what the design choices buy (§3.2, §4.6)";
  Evaluation.Report.table std
    ~header:
      [
        "variant"; "train matched"; "quasi-routers"; "unstable";
        "valid exact"; "valid tie-break";
      ]
    (List.map
       (fun (label, matched, total, qrs, unstable, pred) ->
         [
           label;
           Printf.sprintf "%.1f%%" (pct matched total);
           string_of_int qrs;
           string_of_int unstable;
           Printf.sprintf "%.1f%%" (100.0 *. Evaluation.Predict.exact_fraction pred);
           Printf.sprintf "%.1f%%"
             (100.0 *. Evaluation.Predict.down_to_tie_break_fraction pred);
         ])
       [ full; single; nomed; lpref ])

let battery_families =
  [
    Netgen.Family.Paper;
    Netgen.Family.Waxman Netgen.Family.default_waxman;
    Netgen.Family.Glp Netgen.Family.default_glp;
    Netgen.Family.Fattree Netgen.Family.default_fattree;
  ]

let experiment_robustness ~ases =
  (* The headline metrics across generator families *and* world seeds:
     the shape claims should depend neither on one lucky seed nor on
     the structure of one synthetic family.  Every run must converge
     with an empty quarantine; the battery column scores each world
     against the paper-family world of the same seed. *)
  section "R1" "refiner robustness across generator families and seeds";
  let seeds = [ 42; 1001; 31337 ] in
  let conf_of family seed =
    { (Netgen.Conf.sized ases) with Netgen.Conf.seed = seed; family }
  in
  let paper_summaries =
    List.map
      (fun seed ->
        let conf = conf_of Netgen.Family.Paper seed in
        let topo =
          Netgen.generate Netgen.Family.Paper conf (Random.State.make [| seed |])
        in
        (seed, Analysis.Topometrics.summarize (Netgen.Gentopo.as_graph topo)))
      seeds
  in
  let rows =
    List.concat_map
      (fun family ->
        List.map
          (fun seed ->
            let conf = conf_of family seed in
            let world, data = Core.generate ~conf () in
            let prepared = Core.prepare data in
            let splits = Core.split ~seed:7 prepared in
            let result =
              span
                (Printf.sprintf "%s seed %d" (Netgen.Family.name family) seed)
                (fun () ->
                  (* The quasi-router cap keeps hub-heavy families
                     tractable: on origin-collapsed data a GLP hub AS
                     would otherwise absorb hundreds of duplicates, and
                     every duplicate joins its AS's full iBGP mesh —
                     quadratic session growth, tens of GB per cell.  The
                     paper's Figure 8 shows real ASes need few
                     quasi-routers; 16 is generous. *)
                  Core.build
                    ~options:
                      {
                        Refine.Refiner.default_options with
                        max_iterations = Some 16;
                        max_quasi_routers = 16;
                      }
                    prepared ~training:splits.Evaluation.Split.training)
            in
            let prediction =
              Core.evaluate result ~validation:splits.Evaluation.Split.validation
            in
            let score =
              let s =
                Analysis.Topometrics.summarize
                  (Netgen.Gentopo.as_graph world.Netgen.Groundtruth.topo)
              in
              (Analysis.Topometrics.compare (List.assoc seed paper_summaries) s)
                .Analysis.Topometrics.score
            in
            [
              Netgen.Family.name family;
              string_of_int seed;
              Printf.sprintf "%.1f%%"
                (pct result.Refine.Refiner.matched result.Refine.Refiner.total);
              string_of_int result.Refine.Refiner.iterations;
              Printf.sprintf "%.1f%%"
                (100.0 *. Evaluation.Predict.exact_fraction prediction);
              Printf.sprintf "%.1f%%"
                (100.0
                *. Evaluation.Predict.down_to_tie_break_fraction prediction);
              string_of_int result.Refine.Refiner.quarantined_prefixes;
              Printf.sprintf "%.3f" score;
            ]
            |> fun row ->
            (* A refined 500-AS world (states table, duplicated
               quasi-routers, policy tables) holds gigabytes; without a
               compaction between cells the matrix accumulates every
               cell's dead heap as unreturned RSS. *)
            Gc.compact ();
            row)
          seeds)
      battery_families
  in
  Evaluation.Report.table std
    ~header:
      [
        "family"; "seed"; "train"; "iters"; "exact"; "tie-break"; "quar";
        "battery";
      ]
    rows

let experiment_sweep base_conf =
  (* How prediction accuracy scales with vantage points: train on a
     growing subset of the training observation points. *)
  section "SWEEP" "prediction accuracy vs number of training vantage points";
  let prepared = Core.prepare (snd (Core.generate ~conf:base_conf ())) in
  let splits = Core.split ~seed:7 prepared in
  let train_points = Rib.observation_points splits.Evaluation.Split.training in
  let validation = splits.Evaluation.Split.validation in
  let total = List.length train_points in
  let rows =
    List.filter_map
      (fun fraction ->
        let k = max 1 (int_of_float (float_of_int total *. fraction)) in
        let subset = List.filteri (fun i _ -> i < k) train_points in
        let training =
          Rib.restrict_points splits.Evaluation.Split.training subset
        in
        if Rib.size training = 0 then None
        else begin
          let result =
            span
              (Printf.sprintf "sweep %d points" k)
              (fun () ->
                Core.build
                  ~options:
                    { Refine.Refiner.default_options with max_iterations = Some 14 }
                  prepared ~training)
          in
          let prediction = Core.evaluate result ~validation in
          Some
            [
              string_of_int k;
              Printf.sprintf "%.1f%%"
                (100.0 *. Evaluation.Predict.exact_fraction prediction);
              Printf.sprintf "%.1f%%"
                (100.0 *. Evaluation.Predict.down_to_tie_break_fraction prediction);
              Printf.sprintf "%.1f%%"
                (100.0 *. Evaluation.Predict.rib_in_fraction prediction);
            ]
        end)
      [ 0.25; 0.5; 0.75; 1.0 ]
  in
  Evaluation.Report.table std
    ~header:[ "train points"; "exact"; "tie-break"; "rib-in bound" ]
    rows

(* The WARM section's 14-iteration refinement under warm-start mode
   [warm], at jobs=1 so engine events and the calling domain's
   allocated words compare directly. *)
let warm_refine warm prepared ~training () =
  with_runtime (fun rt -> { rt with Runtime.warm; jobs = Some 1 })
  @@ fun () ->
  Core.build
    ~options:{ Refine.Refiner.default_options with max_iterations = Some 14 }
    prepared ~training

let ratio a b = if b > 0.0 then a /. b else 0.0

let experiment_warm prepared =
  (* The same refinement run cold (RD_WARM=off) and warm (every
     re-simulation resumes from the previous fixed point). *)
  section "WARM" "warm-start re-simulation vs cold (RD_WARM)";
  let training = (Core.split ~seed:7 prepared).Evaluation.Split.training in
  let run label warm =
    (* The warm.* registry counters only go up: a run's counts are the
       difference across it. *)
    let w0 = Simulator.Warm.stats () in
    let (result, wall_s), alloc =
      Obs.Metrics.allocated_words (fun () ->
          wall (fun () -> span label (warm_refine warm prepared ~training)))
    in
    let w1 = Simulator.Warm.stats () in
    ( result.Refine.Refiner.pool.Simulator.Pool.events,
      wall_s,
      alloc,
      w1.warm_runs - w0.warm_runs,
      w1.cold_runs - w0.cold_runs )
  in
  let cold_events, cold_wall, cold_alloc, _, _ =
    run "WARM cold jobs=1" Runtime.Warm_mode.Off
  in
  let warm_events, warm_wall, warm_alloc, warm_runs, cold_runs =
    run "WARM warm jobs=1" Runtime.Warm_mode.On
  in
  let event_ratio =
    ratio (float_of_int warm_events) (float_of_int cold_events)
  in
  Evaluation.Report.table std
    ~header:[ "mode"; "refine wall"; "engine events"; "allocated words" ]
    [
      [
        "cold";
        Printf.sprintf "%.1fs" cold_wall;
        string_of_int cold_events;
        string_of_int cold_alloc;
      ];
      [
        "warm";
        Printf.sprintf "%.1fs" warm_wall;
        string_of_int warm_events;
        string_of_int warm_alloc;
      ];
    ];
  Format.printf "warm/cold event ratio: %.2f (%d warm resumes, %d cold runs)@."
    event_ratio warm_runs cold_runs;
  let mode wall_s events alloc =
    Json.Obj
      [
        ("wall_s", Json.Float wall_s);
        ("events", Json.Int events);
        ("allocated_words", Json.Int alloc);
      ]
  in
  Json.Obj
    [
      ("cold", mode cold_wall cold_events cold_alloc);
      ("warm", mode warm_wall warm_events warm_alloc);
      ("event_ratio", Json.Float event_ratio);
      ("wall_ratio", Json.Float (ratio warm_wall cold_wall));
      ("warm_runs", Json.Int warm_runs);
      ("cold_runs", Json.Int cold_runs);
    ]

(* Percentile estimate from a pair of histogram snapshots: the upper
   bound of the bucket where the cumulative delta count crosses [q]. *)
let histogram_percentile ~before ~after q =
  let buckets_of = function
    | Some (Obs.Metrics.Histogram { buckets; _ }) -> buckets
    | _ -> []
  in
  let pre = buckets_of before and post = buckets_of after in
  let delta =
    if List.length pre = List.length post then
      List.map2 (fun (le, a) (le', b) -> assert (le = le'); (le, b - a)) pre post
    else post
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 delta in
  if total = 0 then 0
  else begin
    let target =
      max 1 (int_of_float (Float.round (q *. float_of_int total)))
    in
    let rec go acc = function
      | [] -> 0
      | (le, n) :: rest -> if acc + n >= target then le else go (acc + n) rest
    in
    go 0 delta
  end

let experiment_serve prepared =
  (* The query service on a frozen snapshot of this world: read-query
     throughput and latency percentiles from the serve histograms, and
     a what-if delta resumed warm from the cached states vs re-converging
     every prefix cold — the two CI gates. *)
  section "SERVE" "query service over a frozen snapshot (lib/serve)";
  let model = Asmodel.Qrmodel.initial prepared.Core.graph in
  let snap, snapshot_build_s = wall (fun () -> Serve.Snapshot.build model) in
  let prefixes = List.map fst (Serve.Snapshot.states snap) in
  let ases = Topology.Asgraph.nodes prepared.Core.graph in
  let sample_ases = List.filteri (fun i _ -> i mod 97 = 0) ases in
  let reqs =
    List.concat
      (List.mapi
         (fun i p ->
           List.map
             (fun asn -> Serve.Protocol.Path { prefix = p; asn })
             sample_ases
           @
           if i mod 16 = 0 then
             [
               Serve.Protocol.Catchment
                 { egress = List.nth ases (i mod List.length ases);
                   prefix = Some p };
             ]
           else [])
         prefixes)
  in
  let lat_before = Obs.Metrics.value "serve.latency_us" in
  let misses0 = Obs.Metrics.find_counter "serve.deadline_misses" in
  let failed, read_wall =
    wall (fun () ->
        List.fold_left
          (fun acc req ->
            let resp = Serve.Query.eval_timed ~deadline_ms:1000 snap req in
            match resp.Serve.Protocol.result with
            | Ok _ -> acc
            | Error _ -> acc + 1)
          0 reqs)
  in
  let lat_after = Obs.Metrics.value "serve.latency_us" in
  let deadline_misses =
    Obs.Metrics.find_counter "serve.deadline_misses" - misses0
  in
  let queries = List.length reqs in
  let queries_per_sec = ratio (float_of_int queries) read_wall in
  let latency_p50_us =
    histogram_percentile ~before:lat_before ~after:lat_after 0.50
  in
  let latency_p99_us =
    histogram_percentile ~before:lat_before ~after:lat_after 0.99
  in
  (* What-if: warm (the serve path — each prefix whose best routes
     cross the link resumes from its cached converged state) vs the
     same query under RD_WARM=off (those prefixes re-converge from
     scratch under the same deny). *)
  let a, b =
    match Topology.Asgraph.edges prepared.Core.graph with
    | (a, b) :: _ -> (a, b)
    | [] -> (0, 0)
  in
  let whatif () = Serve.Query.eval snap (Serve.Protocol.Whatif { a; b }) in
  let whatif_resume_hits =
    match whatif () with
    | Ok (Serve.Protocol.Whatif_summary { resume_hits; _ }) -> resume_hits
    | Ok _ | Error _ -> 0
  in
  let whatif_warm_s, whatif_cold_s =
    fastest_of_three
      ( (fun () -> ignore (whatif ())),
        fun () ->
          with_runtime
            (fun rt -> { rt with warm = Runtime.Warm_mode.Off })
            (fun () -> ignore (whatif ())) )
  in
  Serve.Snapshot.retire snap;
  Evaluation.Report.kv std
    [
      ("prefixes served", string_of_int (List.length prefixes));
      ("snapshot build", Printf.sprintf "%.2fs" snapshot_build_s);
      ("read queries", Printf.sprintf "%d (%d failed)" queries failed);
      ("queries/sec", Printf.sprintf "%.0f" queries_per_sec);
      ("latency p50", Printf.sprintf "%dus" latency_p50_us);
      ("latency p99", Printf.sprintf "%dus" latency_p99_us);
      ("deadline misses (1000ms)", string_of_int deadline_misses);
      ( "what-if wall (fastest of 3)",
        Printf.sprintf "warm %.3fs vs cold %.3fs (%.2fx)" whatif_warm_s
          whatif_cold_s
          (ratio whatif_cold_s whatif_warm_s) );
      ("what-if warm resumes", string_of_int whatif_resume_hits);
    ];
  Json.Obj
    [
      ("prefixes", Json.Int (List.length prefixes));
      ("snapshot_build_s", Json.Float snapshot_build_s);
      ("queries", Json.Int queries);
      ("queries_per_sec", Json.Float queries_per_sec);
      ("latency_p50_us", Json.Int latency_p50_us);
      ("latency_p99_us", Json.Int latency_p99_us);
      ("deadline_misses", Json.Int deadline_misses);
      ("whatif_warm_s", Json.Float whatif_warm_s);
      ("whatif_cold_s", Json.Float whatif_cold_s);
      ("whatif_resume_hits", Json.Int whatif_resume_hits);
    ]

let experiment_churn prepared =
  (* The replay tentpole, measured: the same deterministic churn stream
     (every event class) replayed warm — only touched prefixes
     reconverge, resumed from the cached fixed points — and cold — the
     same per-event batches from scratch.  Each run gets a fresh model:
     replay mutates the live net. *)
  section "CHURN" "event-stream replay: warm reconvergence vs cold (lib/stream)";
  let run label warm =
    with_runtime (fun rt -> { rt with warm; faults = None }) @@ fun () ->
    let model = Asmodel.Qrmodel.initial prepared.Core.graph in
    let stream =
      Stream.Streamgen.mixed ~events:48 model (Random.State.make [| 42 |])
    in
    span label (fun () -> snd (Stream.Replay.run model stream))
  in
  let warm = run "CHURN warm" Runtime.Warm_mode.On in
  let cold = run "CHURN cold" Runtime.Warm_mode.Off in
  let sum f (r : Stream.Replay.report) =
    List.fold_left (fun acc (_, cs) -> acc + f cs) 0 r.Stream.Replay.classes
  in
  let events_of = sum (fun cs -> cs.Stream.Replay.cs_engine_events) in
  let warm_resumes = sum (fun cs -> cs.Stream.Replay.cs_warm) warm in
  let event_ratio =
    ratio (float_of_int (events_of warm)) (float_of_int (events_of cold))
  in
  Evaluation.Report.table std
    ~header:
      [ "class"; "events"; "prefixes"; "engine events"; "warm"; "cold";
        "ASes shifted"; "polluted" ]
    (List.map
       (fun (cls, cs) ->
         [
           Stream.Replay.cls_name cls;
           string_of_int cs.Stream.Replay.cs_events;
           string_of_int cs.Stream.Replay.cs_prefixes;
           string_of_int cs.Stream.Replay.cs_engine_events;
           string_of_int cs.Stream.Replay.cs_warm;
           string_of_int cs.Stream.Replay.cs_cold;
           string_of_int cs.Stream.Replay.cs_ases_shifted;
           string_of_int cs.Stream.Replay.cs_polluted;
         ])
       warm.Stream.Replay.classes);
  Format.printf
    "events replayed: %d (%d rejected)@.engine events: warm %d vs cold %d \
     (ratio %.2f, %d resumes)@."
    warm.Stream.Replay.events warm.Stream.Replay.rejected (events_of warm)
    (events_of cold) event_ratio warm_resumes;
  Json.Obj
    [
      ("events", Json.Int warm.Stream.Replay.events);
      ("rejected", Json.Int warm.Stream.Replay.rejected);
      ( "warm",
        Json.Obj
          [
            ("engine_events", Json.Int (events_of warm));
            ("wall_s", Json.Float warm.Stream.Replay.wall_s);
            ("resumes", Json.Int warm_resumes);
          ] );
      ( "cold",
        Json.Obj
          [
            ("engine_events", Json.Int (events_of cold));
            ("wall_s", Json.Float cold.Stream.Replay.wall_s);
          ] );
      ("event_ratio", Json.Float event_ratio);
      ( "polluted_ases",
        Json.Int (sum (fun cs -> cs.Stream.Replay.cs_polluted) warm) );
    ]

(* ------------------------------------------------------------------ *)
(* §TOPO: the topology-fidelity battery across generator families      *)
(* ------------------------------------------------------------------ *)

let experiment_topo ~ases ~seed =
  section "TOPO" "topology-fidelity battery across generator families";
  let conf = { (Netgen.Conf.sized ases) with Netgen.Conf.seed = seed } in
  let topo_of family =
    wall (fun () -> Netgen.generate family conf (Random.State.make [| seed |]))
  in
  let summarize g = Analysis.Topometrics.summarize g in
  let paper_topo, paper_wall = topo_of Netgen.Family.Paper in
  let paper_graph = Netgen.Gentopo.as_graph paper_topo in
  let paper_sum, battery_wall = wall (fun () -> summarize paper_graph) in
  let self_similarity =
    (Analysis.Topometrics.compare paper_sum paper_sum).Analysis.Topometrics
      .score
  in
  Format.printf "paper   %a@." Analysis.Topometrics.pp_summary paper_sum;
  (* (family, generation wall, summary, battery score vs paper) *)
  let rows =
    (Netgen.Family.name Netgen.Family.Paper, paper_wall, paper_sum, 1.0)
    :: List.filter_map
         (fun family ->
           if family = Netgen.Family.Paper then None
           else begin
             let topo, wall = topo_of family in
             let s = summarize (Netgen.Gentopo.as_graph topo) in
             Format.printf "%-7s %a@." (Netgen.Family.name family)
               Analysis.Topometrics.pp_summary s;
             Some
               ( Netgen.Family.name family,
                 wall,
                 s,
                 (Analysis.Topometrics.compare paper_sum s)
                   .Analysis.Topometrics.score )
           end)
         battery_families
  in
  Evaluation.Report.table std
    ~header:[ "family"; "gen wall"; "nodes"; "edges"; "vs paper" ]
    (List.map
       (fun (name, gen_wall, s, score) ->
         [
           name;
           Printf.sprintf "%.0f ms" (gen_wall *. 1000.0);
           string_of_int Analysis.Topometrics.(s.nodes);
           string_of_int Analysis.Topometrics.(s.edges);
           Printf.sprintf "%.3f" score;
         ])
       rows);
  Format.printf "battery wall: %.3fs, paper self-similarity: %.3f@."
    battery_wall self_similarity;
  Json.Obj
    [
      ("ases", Json.Int ases);
      (* The CI gate requires exactly 1.0. *)
      ("self_similarity", Json.Float self_similarity);
      ("battery_wall_s", Json.Float battery_wall);
      ( "families",
        Json.Obj
          (List.map
             (fun (name, gen_wall, s, score) ->
               ( name,
                 Json.Obj
                   [
                     ("gen_wall_s", Json.Float gen_wall);
                     ("nodes", Json.Int Analysis.Topometrics.(s.nodes));
                     ("edges", Json.Int Analysis.Topometrics.(s.edges));
                     ("score_vs_paper", Json.Float score);
                   ] ))
             rows) );
    ]

let experiment_scale ~ases ~seed =
  (* The flat-slab engine at scale, against the frozen pre-rewrite
     engine (Engine_reference) on the same world: identical routing
     (fingerprints and event counts, cold and warm) and a throughput
     ratio — the two numbers CI gates on.  Both engines run
     sequentially in this domain so events/sec compares engine code,
     not pool scheduling. *)
  section "SCALE"
    "flat-slab engine vs frozen reference on a paper-shaped large world";
  let conf = { (Netgen.Conf.sized ases) with Netgen.Conf.seed = seed } in
  Format.printf "%a@." Netgen.Conf.pp conf;
  let world, build_s = wall (fun () -> Netgen.Groundtruth.build conf) in
  let net = world.Netgen.Groundtruth.net in
  let nodes = Simulator.Net.node_count net in
  (* Force the CSR index once, outside both timed runs: after the first
     generation both engines read the same frozen session index. *)
  let sessions = Simulator.Net.Csr.slot_count (Simulator.Net.csr net) in
  let world_fp = Simulator.Net.structure_fingerprint net in
  let plan = world.Netgen.Groundtruth.prefix_plan in
  let step = max 1 (List.length plan / 48) in
  let samples =
    List.filteri (fun i _ -> i mod step = 0) plan
    |> List.map (fun (p, _asn, anchors) -> (p, anchors))
  in
  Format.printf
    "world: %d nodes, %d half-sessions, %d prefixes (%d sampled), structure \
     fingerprint %08x@."
    nodes sessions (List.length plan) (List.length samples)
    (world_fp land 0xffffffff);
  (* Cold sweeps are deterministic and leave the net untouched, so each
     engine runs [reps] identical sweeps and its wall is the sum of
     *per-prefix minima* across repetitions: a co-tenant burst or GC
     pause then only poisons the one ~10ms prefix it landed on, not a
     whole sweep.  Repetitions interleave the two engines so slow drift
     (frequency scaling, load) hits both equally — this is what keeps
     the CI speedup gate stable on shared runners. *)
  let reps = 5 in
  let sample_arr = Array.of_list samples in
  let nsamp = Array.length sample_arr in
  let ref_min = Array.make nsamp infinity in
  let flat_min = Array.make nsamp infinity in
  (* Each sweep starts from a settled heap: without this, major-GC debt
     left by the previous sweep is repaid inside the next one's wall. *)
  let ref_sweep () =
    Gc.full_major ();
    span "SCALE reference cold" (fun () ->
        Array.to_list
          (Array.mapi
             (fun i (p, anchors) ->
               let st, w =
                 wall (fun () ->
                     Engine_reference.simulate net ~prefix:p
                       ~originators:anchors)
               in
               if w < ref_min.(i) then ref_min.(i) <- w;
               st)
             sample_arr))
  in
  let flat_sweep () =
    Gc.full_major ();
    span "SCALE flat cold" (fun () ->
        Array.to_list
          (Array.mapi
             (fun i (p, anchors) ->
               let st, w =
                 wall (fun () ->
                     Simulator.Engine.simulate net ~prefix:p
                       ~originators:anchors)
               in
               if w < flat_min.(i) then flat_min.(i) <- w;
               st)
             sample_arr))
  in
  let ref_states = ref_sweep () in
  let flat_states, flat_words = Obs.Metrics.allocated_words flat_sweep in
  for _ = 2 to reps do
    ignore (ref_sweep ());
    ignore (flat_sweep ())
  done;
  let ref_wall = Array.fold_left ( +. ) 0.0 ref_min in
  let flat_wall = Array.fold_left ( +. ) 0.0 flat_min in
  let ref_events =
    List.fold_left
      (fun acc st -> acc + Engine_reference.events st)
      0 ref_states
  in
  let flat_events =
    List.fold_left (fun acc st -> acc + Simulator.Engine.events st) 0 flat_states
  in
  let cold_identical =
    ref_events = flat_events
    && List.for_all2
         (fun rst fst_ ->
           Engine_reference.state_fingerprint rst
           = Simulator.Engine.state_fingerprint fst_
           && Engine_reference.events rst = Simulator.Engine.events fst_
           && Engine_reference.converged rst = Simulator.Engine.converged fst_)
         ref_states flat_states
  in
  (* Warm resumption: one per-prefix import-MED override (which marks
     the announcing peer touched), resumed by both engines from their
     cold fixed points, then reverted.  Fingerprints must agree pair by
     pair here too — the warm path copies and mutates the slab
     directly, so it gets its own gate. *)
  let touch_node =
    let rec find u =
      if u >= nodes then 0
      else if Simulator.Net.session_count_of net u > 0 then u
      else find (u + 1)
    in
    find 0
  in
  let warm_pairs = ref 0 in
  let warm_identical = ref true in
  span "SCALE warm verify" (fun () ->
      List.iter2
        (fun (p, anchors) (rst, fst_) ->
          Simulator.Net.set_import_med net touch_node 0 p 7;
          let rw =
            Engine_reference.simulate net ~from:rst ~prefix:p
              ~originators:anchors
          in
          let fw =
            Simulator.Engine.simulate net ~from:fst_ ~prefix:p
              ~originators:anchors
          in
          Simulator.Net.clear_import_med net touch_node 0 p;
          Simulator.Net.clear_touched net p;
          incr warm_pairs;
          if
            Engine_reference.state_fingerprint rw
            <> Simulator.Engine.state_fingerprint fw
            || Engine_reference.events rw <> Simulator.Engine.events fw
          then warm_identical := false)
        samples
        (List.combine ref_states flat_states));
  Obs.Metrics.record_gc ();
  let top_heap_words =
    Obs.Metrics.gauge_value (Obs.Metrics.gauge "gc.top_heap_words")
  in
  let per_sec events wall =
    if wall > 0.0 then float_of_int events /. wall else 0.0
  in
  let speedup = if flat_wall > 0.0 then ref_wall /. flat_wall else 0.0 in
  let n_samples = List.length samples in
  let wall_per_prefix_ms =
    if n_samples = 0 then 0.0 else 1000.0 *. flat_wall /. float_of_int n_samples
  in
  Evaluation.Report.kv std
    [
      ("ASes / nodes / half-sessions",
       Printf.sprintf "%d / %d / %d" ases nodes sessions);
      ("world build", Printf.sprintf "%.1fs" build_s);
      ( "reference engine",
        Printf.sprintf "%.2fs, %d events (%.0f events/s)" ref_wall ref_events
          (per_sec ref_events ref_wall) );
      ( "flat engine",
        Printf.sprintf "%.2fs, %d events (%.0f events/s)" flat_wall
          flat_events
          (per_sec flat_events flat_wall) );
      ("flat wall per prefix", Printf.sprintf "%.2fms" wall_per_prefix_ms);
      ("speedup (ref/flat)", Printf.sprintf "%.2fx" speedup);
      ("cold fingerprints identical", string_of_bool cold_identical);
      ( "warm fingerprints identical",
        Printf.sprintf "%b (%d pairs)" !warm_identical !warm_pairs );
      ("peak major heap", Printf.sprintf "%d words" top_heap_words);
      ("first flat sweep allocated", Printf.sprintf "%d words" flat_words);
    ];
  let engine wall_s events extra =
    Json.Obj
      ([
         ("wall_s", Json.Float wall_s);
         ("events", Json.Int events);
         ("events_per_sec", Json.Float (per_sec events wall_s));
       ]
      @ extra)
  in
  Json.Obj
    [
      ("family", Json.String (Netgen.Family.to_string conf.Netgen.Conf.family));
      ("ases", Json.Int ases);
      ("nodes", Json.Int nodes);
      ("half_sessions", Json.Int sessions);
      ("prefixes", Json.Int (List.length plan));
      ("sampled_prefixes", Json.Int n_samples);
      ("build_s", Json.Float build_s);
      ("world_fingerprint", Json.Int world_fp);
      ("reference", engine ref_wall ref_events []);
      ( "flat",
        engine flat_wall flat_events
          [ ("wall_per_prefix_ms", Json.Float wall_per_prefix_ms) ] );
      ("speedup", Json.Float speedup);
      ("cold_identical", Json.Bool cold_identical);
      ("warm_identical", Json.Bool !warm_identical);
      ("warm_pairs", Json.Int !warm_pairs);
      ("top_heap_words", Json.Int top_heap_words);
      ("flat_allocated_words", Json.Int flat_words);
    ]

(* ------------------------------------------------------------------ *)

let () =
  (* Every RD_* knob flag is parsed by Simulator.Runtime's table — env
     first, argv on top; only the bench-specific flags below are
     handled here, on the leftover arguments. *)
  let args =
    match
      Runtime.with_argv (Runtime.of_env ()) (List.tl (Array.to_list Sys.argv))
    with
    | Ok (rt, rest) ->
        Runtime.set rt;
        rest
    | Error msg ->
        prerr_endline msg;
        exit 1
  in
  let has flag = List.mem flag args in
  let value flag default =
    let rec go = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  (* A numeric flag's value; one that does not parse or is out of range
     is a usage error (exit 1). *)
  let number flag parse ~default ~ok ~expects =
    let raw = value flag default in
    match parse raw with
    | Some v when ok v -> v
    | Some _ | None ->
        Printf.eprintf "bench: %s expects %s, got %S\n" flag expects raw;
        exit 1
  in
  let ases flag default =
    number flag int_of_string_opt ~default
      ~ok:(fun n -> n >= 50)
      ~expects:"an integer >= 50"
  in
  let quick = has "--quick" in
  let scale =
    number "--scale" float_of_string_opt
      ~default:(if quick then "0.35" else "1.0")
      ~ok:(fun f -> Float.is_finite f && f > 0.0)
      ~expects:"a positive number"
  in
  let seed =
    number "--seed" int_of_string_opt ~default:"42"
      ~ok:(fun _ -> true)
      ~expects:"an integer"
  in
  let scale_ases = ases "--scale-ases" (if quick then "1500" else "5000") in
  let topo_ases = ases "--topo-ases" "500" in
  let robust_ases =
    ases "--robust-ases"
      (string_of_int (max 50 (Float.to_int (Float.round (500. *. scale)))))
  in
  Format.printf "simulation workers: %d (RD_JOBS/--jobs to change)@."
    (Runtime.jobs ());
  Format.printf "runtime: %a@." Runtime.pp (Runtime.current ());
  let build_world () =
    let conf = { (Netgen.Conf.scaled scale) with Netgen.Conf.seed = seed } in
    section "WORLD" "synthetic ground truth (DESIGN.md 2)";
    Format.printf "%a@." Netgen.Conf.pp conf;
    let world = span "build" (fun () -> Netgen.Groundtruth.build conf) in
    Format.printf "%a@." Netgen.Groundtruth.pp_summary world;
    let data = span "observe" (fun () -> Netgen.Groundtruth.observe world) in
    Format.printf "observed entries: %d@." (Rib.size data);
    let prepared = Core.prepare data in
    Format.printf "prepared: %a@.core graph: %a@."
      Topology.Extract.pp_classification prepared.Core.classification
      Topology.Asgraph.pp_stats prepared.Core.graph;
    (data, prepared)
  in
  (* The warm-start sections, in run order; SERVE carries the CI
     wall-time gates. *)
  let warm_sections prepared =
    let warm = experiment_warm prepared in
    let serve = experiment_serve prepared in
    let churn = experiment_churn prepared in
    [ ("warm", warm); ("serve", serve); ("churn", churn) ]
  in
  let results, total_s =
    wall (fun () ->
        if has "--scale-only" then
          [ ("scale_world", experiment_scale ~ases:scale_ases ~seed) ]
        else if has "--topo-only" then
          [ ("topo", experiment_topo ~ases:topo_ases ~seed) ]
        else if has "--robust-only" then begin
          experiment_robustness ~ases:robust_ases;
          []
        end
        else if has "--warm-only" then warm_sections (snd (build_world ()))
        else begin
          let data, prepared = build_world () in
          experiment_f2_t1 data;
          experiment_inflation prepared;
          ignore (experiment_t2 prepared);
          ignore (experiment_train_predict prepared ~seed:7);
          let warm = warm_sections prepared in
          experiment_t5 prepared ~seed:7;
          experiment_t6 prepared ~seed:7;
          let ablation_conf =
            {
              (Netgen.Conf.scaled (scale *. 0.35)) with
              Netgen.Conf.seed = seed;
            }
          in
          experiment_ablations ablation_conf;
          experiment_robustness ~ases:robust_ases;
          if has "--sweep" then experiment_sweep ablation_conf;
          let topo = experiment_topo ~ases:topo_ases ~seed in
          let scale_world = experiment_scale ~ases:scale_ases ~seed in
          warm @ [ ("topo", topo); ("scale_world", scale_world) ]
        end)
  in
  let path = value "--json" "BENCH.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              ([
                 ("scale", Json.Float scale);
                 ("seed", Json.Int seed);
                 ("jobs", Json.Int (Runtime.jobs ()));
               ]
              @ results)));
      output_char oc '\n');
  Format.printf "wrote %s@." path;
  Obs.Trace.flush std;
  Format.printf "@.[total: %.1fs]@." total_s
