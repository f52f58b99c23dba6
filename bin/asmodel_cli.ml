(* asmodel — command-line front end for the AS-routing-model pipeline.

   Subcommands mirror the methodology stages: generate a synthetic
   world's dumps, inspect a data set, run the single-router baselines,
   build (refine) a model, evaluate predictions, and run link-removal
   what-if studies. *)

open Cmdliner
open Bgp

let load_dataset path =
  let data, stats, diagnostics = Rib.load path in
  List.iter (Printf.eprintf "%s\n") diagnostics;
  Printf.eprintf
    "loaded %s: %d records, %d kept (%d loops, %d empty, %d duplicates dropped)\n%!"
    path stats.Rib.raw (Rib.size data) stats.Rib.dropped_loops
    stats.Rib.dropped_empty stats.Rib.deduplicated;
  data

let std = Format.std_formatter

(* The RD_* knob flags of a subcommand, each declared once in
   Simulator.Runtime's table.  The term parses the given flags on top of
   the ambient configuration (RD_* env first), installs the result —
   so RD_TRACE takes effect even on runs that never touch the pool —
   and brings the RD_CHECK hook in line with it.  A bad value is a usage
   error (exit 1). *)
let knob_flags names =
  let module R = Simulator.Runtime in
  (* "--jobs" -> "jobs", "-j" -> "j" *)
  let bare f =
    let i = String.rindex_from f 1 '-' + 1 in
    String.sub f i (String.length f - i)
  in
  let flag name =
    let k = Option.get (R.knob name) in
    let given =
      Arg.(
        value
        & opt (some string) None
        & info (List.map bare k.R.flags) ~docv:k.R.docv ~doc:k.R.doc)
    in
    let parse v rt =
      match v with
      | None -> Ok rt
      | Some s ->
          Result.map_error (Printf.sprintf "%s: %s" name) (k.R.parse s rt)
    in
    Term.(const parse $ given)
  in
  let apply parsers =
    List.fold_left Result.bind (Ok (R.current ())) parsers
    |> Result.map (fun rt ->
           R.set rt;
           Analysis.Ownership.ensure ())
  in
  Term.(
    term_result' ~usage:true
      (const apply
      $ List.fold_right
          (fun name acc -> const List.cons $ flag name $ acc)
          names (const [])))

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Treat every recorded finding as fatal: lint warnings, and any \
           race or RD_CHECK violation recorded during the run, exit 4.")

(* Recorded checker findings (races, mutation-discipline violations)
   are normally advisory; with [--strict] a clean run that recorded any
   escalates to the lint exit code. *)
let checker_exit ~strict code =
  let n = Analysis.Ownership.count () in
  if n > 0 then begin
    List.iter
      (Format.eprintf "@[<v>%a@]@." Analysis.Report.pp_finding)
      (Analysis.Ownership.findings ());
    Printf.eprintf "RD_CHECK recorded %d finding(s)\n%!" n;
    if strict && code = 0 then 4 else code
  end
  else code

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print a snapshot of every runtime metric after the run.")

(* End-of-run observability output: the metrics snapshot (with
   [--metrics], or whenever spans are being summarised) and the trace
   summary table / trace-file write. *)
let finish_obs ?(metrics = false) () =
  if metrics || Simulator.Runtime.trace () = Obs.Trace.Summary then begin
    Evaluation.Report.section std "OBS" "metrics snapshot";
    Obs.Metrics.record_gc ();
    Format.printf "%a@." Obs.Metrics.pp_snapshot (Obs.Metrics.snapshot ())
  end;
  Obs.Trace.flush std

(* generate *)

(* An unknown family or malformed parameter must fail the parse (exit
   1), never fall back to the default family silently. *)
let family_conv =
  let parse s =
    match Netgen.Family.of_string s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Netgen.Family.pp)

let family_arg =
  Arg.(
    value
    & opt family_conv Netgen.Family.Paper
    & info [ "family" ] ~docv:"FAMILY[:K=V,..]"
        ~doc:
          (Printf.sprintf
             "Generator family for the AS-level structure (default: \
              $(b,paper)); the size flags stay family-agnostic.  Parameter \
              syntax — %s.  Example: $(b,--family waxman:alpha=0.4,beta=0.2)."
             (Netgen.Family.syntax_help ())))

(* The world configuration of the shared size/seed/family flags. *)
let conf_of ~seed ~family ~scale ~ases =
  let base =
    match ases with
    | Some n -> Netgen.Conf.sized n
    | None -> Netgen.Conf.scaled scale
  in
  { base with Netgen.Conf.seed; family }

let generate () seed family scale ases binary out =
  let conf = conf_of ~seed ~family ~scale ~ases in
  Printf.eprintf "generating world: %s\n%!"
    (Format.asprintf "%a" Netgen.Conf.pp conf);
  let world = Netgen.Groundtruth.build conf in
  Format.eprintf "%a@." Netgen.Groundtruth.pp_summary world;
  let data = Netgen.Groundtruth.observe world in
  if binary then Mrt_binary.write_file out (Rib.to_records data)
  else Rib.save out data;
  Printf.printf "wrote %d RIB entries from %d observation points to %s (%s)\n"
    (Rib.size data)
    (List.length (Rib.observation_points data))
    out
    (if binary then "binary MRT" else "text");
  finish_obs ();
  0

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

(* World-size arguments get the --jobs treatment: an explicitly
   nonsensical value (zero, negative, NaN, sub-minimum AS count) fails
   hard at parse time instead of producing a silently clamped or
   unbuildable world. *)
let positive_float_conv =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some f when f > 0.0 && Float.is_finite f -> Ok f
    | Some _ | None ->
        Error
          (`Msg (Printf.sprintf "expected a positive finite number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let ases_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 50 -> Ok n
    | Some _ | None ->
        Error
          (`Msg (Printf.sprintf "expected an AS count of at least 50, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let scale_arg =
  Arg.(
    value & opt positive_float_conv 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Scale factor on the AS counts.")

let ases_arg =
  Arg.(
    value
    & opt (some ases_conv) None
    & info [ "ases" ] ~docv:"N"
        ~doc:
          "Generate a paper-shaped world with $(docv) ASes in total \
           (overrides $(b,--scale)).  Unlike $(b,--scale), the generator \
           knobs are retuned so 5000+-AS worlds build with bounded \
           memory.")

let out_arg =
  Arg.(
    value
    & opt string "dumps.mrt"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output dump file.")

let binary_arg =
  Arg.(
    value & flag
    & info [ "binary" ] ~doc:"Write binary MRT (RFC 6396) instead of text.")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a synthetic world and write its observed table dumps.")
    Term.(
      const generate
      $ knob_flags [ "--jobs"; "--faults"; "--trace" ]
      $ seed_arg $ family_arg $ scale_arg $ ases_arg $ binary_arg $ out_arg)

(* topo-compare *)

(* A world operand is either an existing dump file (its AS graph is
   extracted from the observed paths) or a family spec (a synthetic
   world is generated with the shared size/seed flags). *)
let world_conv =
  let parse s =
    if Sys.file_exists s then Ok (`File s)
    else
      match Netgen.Family.of_string s with
      | Ok f -> Ok (`Family f)
      | Error msg ->
          Error
            (`Msg
               (Printf.sprintf "%S is neither an existing dump file nor a \
                                family spec (%s)"
                  s msg))
  in
  let print ppf = function
    | `File s -> Format.pp_print_string ppf s
    | `Family f -> Netgen.Family.pp ppf f
  in
  Arg.conv (parse, print)

let min_score_conv =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a score in [0,1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let topo_compare () world_a world_b seed scale ases min_score =
  let label = function
    | `File path -> path
    | `Family f -> Netgen.Family.to_string f
  in
  let graph_of = function
    | `File path ->
        let data = load_dataset path in
        Topology.Extract.graph_of_paths (Rib.all_paths data)
    | `Family family ->
        let conf = conf_of ~seed ~family ~scale ~ases in
        let topo = Netgen.generate family conf (Random.State.make [| seed |]) in
        Netgen.Gentopo.as_graph topo
  in
  let summary w =
    let s = Analysis.Topometrics.summarize (graph_of w) in
    Format.printf "%-10s %a@." (label w) Analysis.Topometrics.pp_summary s;
    s
  in
  let sa = summary world_a in
  let sb = summary world_b in
  let report = Analysis.Topometrics.compare sa sb in
  Format.printf "%a@." Analysis.Topometrics.pp_report report;
  if report.Analysis.Topometrics.score < min_score then begin
    Printf.eprintf "similarity %.3f below --min-score %.3f\n%!"
      report.Analysis.Topometrics.score min_score;
    4
  end
  else 0

let world_a_arg =
  Arg.(
    required
    & pos 0 (some world_conv) None
    & info [] ~docv:"WORLD_A"
        ~doc:"First world: a dump file or a family spec (see $(b,--family)).")

let world_b_arg =
  Arg.(
    required
    & pos 1 (some world_conv) None
    & info [] ~docv:"WORLD_B" ~doc:"Second world, same syntax.")

let min_score_arg =
  Arg.(
    value
    & opt min_score_conv 0.0
    & info [ "min-score" ] ~docv:"F"
        ~doc:
          "Fail (exit 4) when the overall similarity score falls below \
           $(docv), so CI can gate on topology fidelity.")

let topo_compare_cmd =
  Cmd.v
    (Cmd.info "topo-compare"
       ~doc:
         (Printf.sprintf
            "Run the topology-fidelity metric battery (degree CCDF, \
             power-law fit, assortativity, clustering, rich-club, coreness, \
             sampled betweenness, spectral distance) on two worlds and \
             report per-metric and overall similarity.  Worlds are dump \
             files or generated family specs; families — %s."
            (Netgen.Family.syntax_help ())))
    Term.(
      const topo_compare $ knob_flags [] $ world_a_arg $ world_b_arg $ seed_arg
      $ scale_arg $ ases_arg $ min_score_arg)

(* stats *)

let in_arg =
  Arg.(
    non_empty
    & opt_all string []
    & info [ "i"; "in" ] ~docv:"FILE"
        ~doc:"Input table-dump file (repeatable: several collectors' dumps \
              are merged).")

let load_datasets inputs =
  match List.map load_dataset inputs with
  | [] -> Rib.of_entries []
  | first :: rest -> List.fold_left Rib.union first rest

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Also write a Graphviz rendering.")

let stats input dot_out =
  let data = load_datasets input in
  let prepared = Core.prepare data in
  Evaluation.Report.section std "DATASET" "inventory (paper 3.1)";
  Format.printf "%a@." Topology.Extract.pp_classification
    prepared.Core.classification;
  Format.printf "levels: %a@." Topology.Hierarchy.pp_levels prepared.Core.levels;
  Format.printf "core graph after stub removal: %a@." Topology.Asgraph.pp_stats
    prepared.Core.graph;
  Evaluation.Report.section std "F2" "distinct AS-paths per AS pair (paper Figure 2)";
  Evaluation.Report.int_series std ~x:"paths" ~y:"pairs"
    (Topology.Diversity.pair_path_histogram data);
  Format.printf "pairs with more than one path: %.1f%%@."
    (100.0 *. Topology.Diversity.fraction_pairs_with_diversity data);
  Evaluation.Report.section std "T1" "max received route diversity (paper Table 1)";
  Evaluation.Report.table std ~header:[ "percentile"; "max #unique AS-paths" ]
    (List.map
       (fun (p, v) -> [ Printf.sprintf "%.0f%%" p; string_of_int v ])
       (Topology.Diversity.table1_quantiles data));
  (match dot_out with
  | Some path ->
      let rels = Core.infer_relationships prepared in
      Topology.Dot.save ~levels:prepared.Core.levels ~relationships:rels path
        prepared.Core.full_graph;
      Printf.printf "graphviz rendering written to %s\n" path
  | None -> ());
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Data-set inventory and route-diversity statistics (paper 3).")
    Term.(const stats $ in_arg $ dot_arg)

(* baseline *)

let baseline input =
  let data = load_datasets input in
  let prepared = Core.prepare data in
  Evaluation.Report.section std "T2a" "single router per AS, shortest path";
  Format.printf "%a@." Evaluation.Agreement.pp
    (Core.baseline_shortest_path prepared);
  Evaluation.Report.section std "T2b" "single router per AS, inferred policies";
  let rels = Core.infer_relationships prepared in
  Format.printf "inferred relationships: %a@." Topology.Relationships.pp_counts
    (Topology.Relationships.counts rels);
  Format.printf "%a@." Evaluation.Agreement.pp (Core.baseline_policies prepared);
  0

let baseline_cmd =
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Evaluate the single-router-per-AS baselines (paper Table 2).")
    Term.(const baseline $ in_arg)

(* build *)

let split_seed_arg =
  Arg.(
    value & opt int 7
    & info [ "split-seed" ] ~docv:"N" ~doc:"Seed of the train/validate split.")

let train_fraction_arg =
  Arg.(
    value & opt float 0.5
    & info [ "train-fraction" ] ~docv:"F"
        ~doc:"Fraction of observation points used for training.")

let by_origin_arg =
  Arg.(
    value & flag
    & info [ "by-origin" ]
        ~doc:"Split by originating AS instead of by observation point.")

let model_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "model-out" ] ~docv:"FILE" ~doc:"Save the refined model here.")

let max_iter_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-iterations" ] ~docv:"N" ~doc:"Cap refinement iterations.")

let build () input split_seed train_fraction by_origin model_out max_iter
    strict metrics =
  let data = load_datasets input in
  let options =
    { Refine.Refiner.default_options with max_iterations = max_iter }
  in
  (* The long refinement reports per-iteration progress on stderr. *)
  let exp =
    Core.run_experiment ~options
      ~on_iteration:(fun (h : Refine.Refiner.iter_stat) ->
        Printf.eprintf "iteration %d: %d/%d matched (%d prefixes changed)\n%!"
          h.Refine.Refiner.iteration h.Refine.Refiner.matched
          h.Refine.Refiner.total h.Refine.Refiner.prefixes_changed)
      ~by_origin ~train_fraction ~seed:split_seed data
  in
  Evaluation.Report.section std "SPLIT" "training/validation";
  Format.printf "%a@." Evaluation.Split.pp exp.Core.splits;
  Evaluation.Report.section std "TRAIN" "iterative refinement (paper 4.6)";
  let r = exp.Core.refinement in
  Evaluation.Report.kv std
    [
      ("iterations", string_of_int r.Refine.Refiner.iterations);
      ("training converged", string_of_bool r.Refine.Refiner.converged);
      ( "training RIB-Out matches",
        Printf.sprintf "%d/%d" r.Refine.Refiner.matched r.Refine.Refiner.total
      );
      ( "model",
        Format.asprintf "%a" Asmodel.Qrmodel.pp_summary r.Refine.Refiner.model
      );
      ( "simulation pool",
        Format.asprintf "%a" Simulator.Pool.pp_stats r.Refine.Refiner.pool );
      ( "warm starts",
        Format.asprintf "%a" Simulator.Warm.pp_stats (Simulator.Warm.stats ())
      );
    ];
  (let ws = Simulator.Warm.stats () in
   if ws.Simulator.Warm.divergences > 0 then
     Printf.eprintf
       "warning: %d warm-start divergences detected (cold results were used)\n%!"
       ws.Simulator.Warm.divergences);
  if r.Refine.Refiner.pool.Simulator.Pool.non_converged > 0 then
    Printf.eprintf
      "warning: %d simulations hit their event budget (partial states)\n%!"
      r.Refine.Refiner.pool.Simulator.Pool.non_converged;
  if r.Refine.Refiner.quarantined_prefixes > 0 then
    Evaluation.Report.kv std
      [
        ( "quarantined prefixes",
          string_of_int r.Refine.Refiner.quarantined_prefixes );
        ( "unstable prefixes",
          string_of_int r.Refine.Refiner.unstable_prefixes );
      ];
  Evaluation.Report.section std "PREDICT" "validation predictions (paper 5)";
  Format.printf "%a@." Evaluation.Predict.pp exp.Core.prediction;
  (match model_out with
  | Some path ->
      Asmodel.Serialize.save path r.Refine.Refiner.model;
      Printf.printf "model saved to %s\n" path
  | None -> ());
  (* The heap size of the refiner's final states; what they share
     (routes, interned paths, CSR offsets) counts once.  Walking them is
     a pass over every state, so only [--metrics] pays for it. *)
  if metrics then
    Obs.Metrics.set_gauge
      (Obs.Metrics.gauge "states.bytes")
      (Obj.reachable_words (Obj.repr r.Refine.Refiner.states)
      * (Sys.word_size / 8));
  finish_obs ~metrics ();
  checker_exit ~strict 0

let build_cmd =
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Refine an AS-routing model from a training split and evaluate its \
          predictions.")
    Term.(
      const build
      $ knob_flags [ "--jobs"; "--faults"; "--warm"; "--check"; "--trace" ]
      $ in_arg $ split_seed_arg $ train_fraction_arg $ by_origin_arg
      $ model_out_arg $ max_iter_arg $ strict_arg $ metrics_arg)

(* eval *)

let model_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "model" ] ~docv:"FILE" ~doc:"A model saved by 'build'.")

(* Run [f] on the model saved at [path]; exit 2 if it cannot be
   loaded. *)
let with_model path f =
  match Asmodel.Serialize.load path with
  | Error msg ->
      Printf.eprintf "cannot load model: %s\n" msg;
      2
  | Ok model -> f model

let eval_run () model_path input metrics =
  with_model model_path @@ fun model ->
  let data = Rib.collapse_to_origin (load_datasets input) in
  let walk = Refine.Matching.walk model ~states:(Hashtbl.create 0) data in
  Format.printf "%a@." Evaluation.Predict.pp (Evaluation.Predict.of_walk walk);
  Format.printf "%a@." Refine.Verify.pp (Refine.Verify.of_walk walk);
  finish_obs ~metrics ();
  0

let eval_cmd =
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a saved model against a dump file.")
    Term.(
      const eval_run
      $ knob_flags [ "--jobs"; "--faults"; "--trace" ]
      $ model_arg $ in_arg $ metrics_arg)

(* inspect *)

let prefix_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "prefix" ] ~docv:"PREFIX" ~doc:"Prefix to study (a.b.c.d/len).")

let inspect model_path prefix_str =
  with_model model_path @@ fun model ->
  match Prefix.of_string prefix_str with
  | None ->
      Printf.eprintf "bad prefix %S\n" prefix_str;
      2
  | Some prefix ->
      let study = Evaluation.Casestudy.study model prefix in
      Evaluation.Casestudy.pp std study;
      0

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Per-prefix case study: which routes each AS receives and selects \
          (paper Figure 3).")
    Term.(const inspect $ model_arg $ prefix_arg)

(* trace *)

let trace_as_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "as" ] ~docv:"ASN" ~doc:"Show this AS's routes in detail.")

let trace model_path prefix_str asn_opt =
  with_model model_path @@ fun model ->
  match Prefix.of_string prefix_str with
  | None ->
      Printf.eprintf "bad prefix %S\n" prefix_str;
      2
  | Some prefix ->
      let st = Asmodel.Qrmodel.simulate model prefix in
      let net = model.Asmodel.Qrmodel.net in
      let tree = Simulator.Trace.tree net st in
      Printf.printf "propagation forest for %s: %d roots, %d unrouted\n"
        (Prefix.to_string prefix)
        (List.length tree.Simulator.Trace.roots)
        (List.length tree.Simulator.Trace.unrouted);
      Printf.printf "depth profile:\n";
      List.iter
        (fun (d, n) -> Printf.printf "  depth %d: %d quasi-routers\n" d n)
        (Simulator.Trace.depth_histogram tree);
      (match asn_opt with
      | None -> ()
      | Some asn ->
          List.iter
            (fun node ->
              Format.printf "  %a@." (Simulator.Trace.pp_route net st) node)
            (Simulator.Net.nodes_of_as net asn));
      0

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Show the propagation forest of a prefix through a saved model.")
    Term.(const trace $ model_arg $ prefix_arg $ trace_as_arg)

(* compact *)

let compact model_path input out =
  with_model model_path @@ fun model ->
  let data = Rib.collapse_to_origin (load_datasets input) in
  match Refine.Compress.compact_verified model ~against:data with
  | None ->
      Printf.printf "compaction would lose matches; model kept as is\n";
      1
  | Some (compacted, stats) ->
      Printf.printf "quasi-routers %d -> %d, sessions %d -> %d\n"
        stats.Refine.Compress.nodes_before stats.Refine.Compress.nodes_after
        stats.Refine.Compress.sessions_before
        stats.Refine.Compress.sessions_after;
      Asmodel.Serialize.save out compacted;
      Printf.printf "compacted model saved to %s\n" out;
      0

let compact_out_arg =
  Arg.(
    value
    & opt string "compacted.model"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output model file.")

let compact_cmd =
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Merge behaviourally-identical quasi-routers, verifying against a \
          dump file.")
    Term.(const compact $ model_arg $ in_arg $ compact_out_arg)

(* export-cbgp *)

let cbgp_out_arg =
  Arg.(
    value
    & opt string "model.cli"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output C-BGP script.")

let export_cbgp model_path out =
  with_model model_path @@ fun model ->
  Asmodel.Cbgp_export.save out model;
  Printf.printf "wrote C-BGP script to %s (%d lines)\n" out
    (List.length (Asmodel.Cbgp_export.to_lines model));
  0

let export_cbgp_cmd =
  Cmd.v
    (Cmd.info "export-cbgp"
       ~doc:"Render a saved model as a C-BGP script (the paper's simulator).")
    Term.(const export_cbgp $ model_arg $ cbgp_out_arg)

(* lint *)

let lint model_path strict =
  with_model model_path @@ fun model ->
  let report = Analysis.Lint.check model in
  Format.printf "%a@." Analysis.Report.pp report;
  let errors = Analysis.Report.error_count report in
  let warns = Analysis.Report.warn_count report in
  if errors > 0 || (strict && warns > 0) then 4 else 0

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically validate a saved model: session symmetry, AS \
          membership, reachability, shadowed/orphan/conflicting policy \
          rules, dispute-wheel risk.  Exits 4 when any Error is found.")
    Term.(const lint $ model_arg $ strict_arg)

(* check *)

let check_run () model_path strict =
  with_model model_path @@ fun model ->
  let net = model.Asmodel.Qrmodel.net in
  (* Simulate every model prefix through the regular pool (so a
     --check on run exercises the instrumented parallel path), then
     audit each frozen state against the live net.  Loading a model
     replays its policies into a fresh net, which fills the touched
     sets; [simulate_all] drains them, or every audit would read as
     stale. *)
  let states, stats = Asmodel.Qrmodel.simulate_all model in
  Printf.eprintf "simulated %a\n%!"
    (fun oc s ->
      Printf.fprintf oc "%d prefixes on %d jobs" s.Simulator.Pool.prefixes
        s.Simulator.Pool.jobs)
    stats;
  let findings =
    Analysis.Report.findings (Analysis.Lint.check model)
    @ List.concat_map (fun (_, st) -> Analysis.Audit.state net st) states
    @ Analysis.Ownership.findings ()
  in
  let report = Analysis.Report.of_findings findings in
  Format.printf "%a@." Analysis.Report.pp report;
  let errors = Analysis.Report.error_count report in
  let warns = Analysis.Report.warn_count report in
  if errors > 0 || (strict && warns > 0) then 4 else 0

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Deep-check a saved model: every lint rule, plus the structural \
          audit of the frozen fast-path structures (CSR session index, \
          route slabs, prepend memo) against a fresh simulation of every \
          model prefix, and any data race or RD_CHECK violation recorded \
          during the run (enable the checker with --check on).  Exits 4 \
          when anything is found.")
    Term.(
      const check_run
      $ knob_flags [ "--check"; "--jobs" ]
      $ model_arg $ strict_arg)

(* whatif *)

let as_a_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"AS1" ~doc:"First AS.")

let as_b_arg =
  Arg.(required & pos 1 (some int) None & info [] ~docv:"AS2" ~doc:"Second AS.")

let whatif model_path a b =
  with_model model_path @@ fun model ->
  if Asmodel.Whatif.link_sessions model.Asmodel.Qrmodel.net a b = [] then begin
    Printf.printf "AS%d and AS%d share no session in this model\n" a b;
    1
  end
  else begin
    let states, _ = Asmodel.Qrmodel.simulate_all model in
    let touched, diff = Asmodel.Whatif.eval model states a b in
    Printf.printf "disabled %d half-sessions between AS%d and AS%d\n" touched
      a b;
    Asmodel.Whatif.pp_diff std diff;
    0
  end

let whatif_cmd =
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Remove the link between two ASes and report route changes.")
    Term.(const whatif $ model_arg $ as_a_arg $ as_b_arg)

(* replay *)

let scenario_arg =
  Arg.(
    value & opt string "mixed"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Churn scenario to generate: one of %s."
             (String.concat ", "
                (List.map (Printf.sprintf "$(b,%s)")
                   Stream.Streamgen.scenario_names))))

let events_arg =
  Arg.(
    value & opt int 32
    & info [ "events" ] ~docv:"N"
        ~doc:"Approximate stream length, where the scenario scales.")

let stream_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "stream-seed" ] ~docv:"N"
        ~doc:
          "Seed of the churn-stream generator (the same model, scenario \
           and seed replay identically).")

let replay_run () model_path scenario events stream_seed strict metrics =
  match Stream.Streamgen.of_name scenario with
  | None ->
      Printf.eprintf "unknown scenario %S (one of: %s)\n" scenario
        (String.concat ", " Stream.Streamgen.scenario_names);
      1
  | Some gen ->
      with_model model_path @@ fun model ->
      let rng = Random.State.make [| stream_seed |] in
      let stream = gen ~events model rng in
      Printf.eprintf "replaying %d %s events over %d model prefixes\n%!"
        (List.length stream) scenario
        (List.length model.Asmodel.Qrmodel.prefixes);
      let driver, report = Stream.Replay.run model stream in
      Evaluation.Report.section std "CHURN" "event-stream replay";
      Format.printf "%a@." Stream.Replay.pp_report report;
      Printf.printf "unrecovered failures: %d\n" report.Stream.Replay.failed;
      Printf.printf "routing fingerprint: %x\n" (Stream.Replay.fingerprint driver);
      finish_obs ~metrics ();
      checker_exit ~strict (if report.Stream.Replay.failed > 0 then 3 else 0)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Generate a deterministic churn stream (flaps, de-peerings, \
          hijacks) and replay it against a saved model, reconverging \
          only touched prefixes warm.  Prints the routing fingerprint of \
          the final states, which is the same under every $(b,--warm) \
          mode.  Exits 3 when any reconvergence failure survives the \
          retries.")
    Term.(
      const replay_run
      $ knob_flags [ "--jobs"; "--faults"; "--warm"; "--check"; "--trace" ]
      $ model_arg $ scenario_arg $ events_arg $ stream_seed_arg $ strict_arg
      $ metrics_arg)

(* serve / query *)

let socket_arg =
  Arg.(
    value
    & opt string "asmodel.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path of the query service (ignored when a TCP \
           port is configured).")

let resolve_listen socket =
  match Simulator.Runtime.port () with
  | Some p -> Serve.Server.Tcp p
  | None -> Serve.Server.Unix_path socket

let serve_run () model_path socket metrics =
  with_model model_path @@ fun model ->
  let snap = Serve.Snapshot.build model in
  if not (Serve.Snapshot.converged snap) then
    Printf.eprintf
      "warning: some cached states did not converge; answers for those \
       prefixes reflect partial states\n%!";
  let store = Serve.Snapshot.store () in
  Serve.Snapshot.publish store snap;
  let listen = resolve_listen socket in
  let srv = Serve.Server.start ~store listen in
  Printf.eprintf "serving %d prefixes (%d quasi-routers) on %s%s\n%!"
    (List.length model.Asmodel.Qrmodel.prefixes)
    (Simulator.Net.node_count model.Asmodel.Qrmodel.net)
    (match listen with
    | Serve.Server.Unix_path p -> p
    | Serve.Server.Tcp p -> Printf.sprintf "127.0.0.1:%d" p)
    (let d = Simulator.Runtime.deadline_ms () in
     if d = 0 then ", no deadline" else Printf.sprintf ", deadline %dms" d);
  Serve.Server.wait srv;
  finish_obs ~metrics ();
  0

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer path, catchment and what-if queries against a frozen \
          snapshot of a saved model (length-prefixed JSON; see 'asmodel \
          query').")
    Term.(
      const serve_run
      $ knob_flags
          [ "--port"; "--deadline-ms"; "--jobs"; "--faults"; "--trace" ]
      $ model_arg $ socket_arg $ metrics_arg)

let query_words_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"QUERY"
        ~doc:
          "One of: $(b,path PREFIX AS); $(b,catchment EGRESS [PREFIX]); \
           $(b,whatif A B); $(b,ping); \
           $(b,reload); $(b,shutdown).")

let parse_query_words words =
  let int_of name s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad %s %S" name s)
  in
  let prefix_of s =
    match Prefix.of_string s with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "bad prefix %S" s)
  in
  let ( let* ) = Result.bind in
  match words with
  | [ "path"; p; a ] ->
      let* prefix = prefix_of p in
      let* asn = int_of "AS" a in
      Ok (Serve.Protocol.Path { prefix; asn })
  | [ "catchment"; e ] ->
      let* egress = int_of "egress AS" e in
      Ok (Serve.Protocol.Catchment { egress; prefix = None })
  | [ "catchment"; e; p ] ->
      let* egress = int_of "egress AS" e in
      let* prefix = prefix_of p in
      Ok (Serve.Protocol.Catchment { egress; prefix = Some prefix })
  | [ "whatif"; a; b ] ->
      let* a = int_of "AS" a in
      let* b = int_of "AS" b in
      Ok (Serve.Protocol.Whatif { a; b })
  | [ "ping" ] -> Ok Serve.Protocol.Ping
  | [ "reload" ] -> Ok Serve.Protocol.Reload
  | [ "shutdown" ] -> Ok Serve.Protocol.Shutdown
  | _ ->
      Error
        (Printf.sprintf "unrecognized query: %s" (String.concat " " words))

let query_run () socket words =
  match parse_query_words words with
  | Error msg ->
      Printf.eprintf "asmodel query: %s\n" msg;
      1
  | Ok req -> (
      let listen = resolve_listen socket in
      match Serve.Server.connect listen with
      | Error msg ->
          Printf.eprintf "cannot connect: %s\n" msg;
          3
      | Ok conn ->
          let code =
            match Serve.Server.request conn req with
            | Error msg ->
                Printf.eprintf "query failed: %s\n" msg;
                3
            | Ok json ->
                print_endline (Serve.Json.to_string json);
                if Serve.Json.(member "ok" json |> Option.map to_bool)
                   = Some (Some true)
                then 0
                else 1
          in
          Serve.Server.close_conn conn;
          code)

let query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one query to a running 'asmodel serve' and print the JSON \
          response.")
    Term.(
      const query_run $ knob_flags [ "--port" ] $ socket_arg $ query_words_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "asmodel" ~version:"1.0.0"
       ~doc:
         "AS-topology models that capture route diversity (Muehlbauer et \
          al., SIGCOMM 2006)")
    [
      generate_cmd;
      topo_compare_cmd;
      stats_cmd;
      baseline_cmd;
      build_cmd;
      eval_cmd;
      inspect_cmd;
      trace_cmd;
      compact_cmd;
      export_cbgp_cmd;
      lint_cmd;
      check_cmd;
      whatif_cmd;
      replay_cmd;
      serve_cmd;
      query_cmd;
    ]

(* Exit codes: 0 success, 1 usage, 2 input parse, 3 simulation/runtime
   failure, 4 lint/check findings (including --strict escalation of
   recorded RD_CHECK violations).  [~catch:false] lets exceptions reach the
   handlers below so a broken input or a persistently failing
   simulation produces a one-line error and a meaningful code, not a
   backtrace. *)
let () =
  (* Library warnings (an ignored RD_* value, a truncated or diverged
     prefix) go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let code =
    try
      match Cmd.eval' ~catch:false main_cmd with
      | c when c = Cmd.Exit.cli_error || c = Cmd.Exit.internal_error -> 1
      | c -> c
    with
    | Sys_error msg ->
        Printf.eprintf "asmodel: %s\n" msg;
        2
    | exn ->
        Printf.eprintf "asmodel: %s\n" (Printexc.to_string exn);
        3
  in
  exit code
