(* Tests for the observability subsystem: the metrics registry (alone
   and under domain concurrency), span tracing in each mode, the
   unified Runtime knob parsing (env and argv), the consolidated
   Engine.simulate entry point, the pool's per-slot timings, and the
   zero allocation of every hook while RD_CHECK and RD_TRACE are
   off. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Pool = Simulator.Pool
module Runtime = Simulator.Runtime
module Metrics = Obs.Metrics
module Trace = Obs.Trace

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* -- Metrics registry -- *)

let registry_idempotent () =
  let c1 = Metrics.counter "test.reg.counter" in
  let c2 = Metrics.counter "test.reg.counter" in
  let before = Metrics.find_counter "test.reg.counter" in
  Metrics.incr c1;
  Metrics.incr ~by:4 c2;
  check_int "both handles feed one counter" (before + 5)
    (Metrics.counter_value c1);
  check_int "find_counter agrees" (Metrics.counter_value c1)
    (Metrics.find_counter "test.reg.counter");
  check_int "unknown name reads 0" 0 (Metrics.find_counter "test.reg.absent");
  let g = Metrics.gauge "test.reg.gauge" in
  Metrics.set_gauge g 7;
  Metrics.set_gauge g 3;
  check_int "gauge keeps the last level" 3 (Metrics.gauge_value g)

let registry_kind_mismatch () =
  ignore (Metrics.counter "test.reg.kind");
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  check_bool "counter name as gauge raises" true
    (raises (fun () -> ignore (Metrics.gauge "test.reg.kind")));
  check_bool "counter name as histogram raises" true
    (raises (fun () -> ignore (Metrics.histogram "test.reg.kind")));
  ignore (Metrics.histogram ~buckets:[ 1; 10 ] "test.reg.hist");
  check_bool "same buckets is idempotent" true
    (not (raises (fun () -> ignore (Metrics.histogram ~buckets:[ 1; 10 ] "test.reg.hist"))));
  check_bool "different buckets raise" true
    (raises (fun () -> ignore (Metrics.histogram ~buckets:[ 1; 10; 100 ] "test.reg.hist")))

let histogram_consistency () =
  let h = Metrics.histogram ~buckets:[ 10; 100; 1000 ] "test.hist.samples" in
  let samples = [ 0; 3; 10; 11; 99; 100; 500; 5000; -7 ] in
  List.iter (Metrics.observe h) samples;
  let expected_sum =
    List.fold_left (fun acc s -> acc + max 0 s) 0 samples
  in
  check_int "count" (List.length samples) (Metrics.histogram_count h);
  check_int "sum (negatives clamp to 0)" expected_sum (Metrics.histogram_sum h);
  match Metrics.value "test.hist.samples" with
  | Some (Metrics.Histogram { buckets; sum; count }) ->
      check_int "snapshot count" (List.length samples) count;
      check_int "snapshot sum" expected_sum sum;
      check_int "bucket totals equal count" count
        (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets);
      check_bool "overflow bucket caught the 5000" true
        (List.exists (fun (bound, n) -> bound = max_int && n = 1) buckets)
  | Some _ | None -> Alcotest.fail "histogram missing from snapshot"

(* Concurrent increments from pool workers must sum exactly, and the
   paired histogram must agree with the counter — the registry's
   cross-domain contract. *)
let concurrent_counters () =
  let c = Metrics.counter "test.conc.counter" in
  let h = Metrics.histogram ~buckets:[ 8; 64 ] "test.conc.hist" in
  let n = 1000 in
  let c0 = Metrics.counter_value c in
  let h0_count = Metrics.histogram_count h in
  let h0_sum = Metrics.histogram_sum h in
  let out =
    Pool.map ~jobs:4
      (fun i ->
        Metrics.incr c;
        Metrics.observe h (i mod 100);
        i)
      (List.init n (fun i -> i))
  in
  check_int "all tasks ran" n (List.length out);
  check_int "counter sums exactly" (c0 + n) (Metrics.counter_value c);
  check_int "histogram count matches counter" (h0_count + n)
    (Metrics.histogram_count h);
  check_int "histogram sum exact" (h0_sum + (n / 100 * 4950))
    (Metrics.histogram_sum h)

(* -- Engine metrics -- *)

(* On a randomized world, one simulation's drained-event count must
   land in engine.events_drained exactly (when no budget escalation
   re-ran the drain). *)
let events_drained_agrees () =
  let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 11 } in
  let world = Netgen.Groundtruth.build conf in
  let data = Netgen.Groundtruth.observe world in
  let prefixes = Rib.prefixes data in
  check_bool "world has prefixes" true (prefixes <> []);
  let p = List.hd prefixes in
  let d0 = Metrics.find_counter "engine.events_drained" in
  let e0 = Metrics.find_counter "engine.budget_escalations" in
  let r0 = Metrics.find_counter "engine.runs" in
  let st = Netgen.Groundtruth.simulate world p in
  check_bool "converged" true (Engine.converged st);
  check_int "one run recorded" (r0 + 1)
    (Metrics.find_counter "engine.runs");
  if Metrics.find_counter "engine.budget_escalations" = e0 then
    check_int "events_drained equals the state's event count"
      (d0 + Engine.events st)
      (Metrics.find_counter "engine.events_drained")

(* -- Engine.simulate consolidation -- *)

let p6 = Asn.origin_prefix 6

let line () =
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let s12, _ = Net.connect net n1 n2 in
  ignore (Net.connect net n2 n3);
  (net, n1, n2, n3, s12)

let simulate_unifies_run_and_resume () =
  let net, n1, _n2, n3, s12 = line () in
  let cold = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  let via_simulate = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "simulate without from is a cold start" true
    (Engine.same_state cold via_simulate);
  (* A per-prefix policy edit leaves the state resumable; simulate
     ~from with an explicit touched list must match the default
     (Net.touched_nodes) form. *)
  Net.deny_export net n1 s12 p6;
  check_bool "still resumable" true (Engine.resumable net cold);
  let hits0 = Metrics.find_counter "engine.warm_resume_hits" in
  let warm =
    Engine.simulate ~from:cold ~touched:(Net.touched_nodes net p6) net
      ~prefix:p6 ~originators:[ n3 ]
  in
  let via_from = Engine.simulate ~from:cold net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "explicit touched = default touched" true
    (Engine.same_state warm via_from);
  check_int "both warm starts counted" (hits0 + 2)
    (Metrics.find_counter "engine.warm_resume_hits");
  (* A wrong-prefix seed falls back to a cold start, counted as a
     miss. *)
  let p9 = Asn.origin_prefix 9 in
  let miss0 = Metrics.find_counter "engine.warm_resume_misses" in
  let cold9 = Engine.simulate net ~prefix:p9 ~originators:[ n3 ] in
  let fellback =
    Engine.simulate ~from:cold net ~prefix:p9 ~originators:[ n3 ]
  in
  check_bool "wrong-prefix seed falls back cold" true
    (Engine.same_state cold9 fellback);
  check_int "miss counted" (miss0 + 1)
    (Metrics.find_counter "engine.warm_resume_misses");
  (* A non-resumable seed (truncated run) also falls back cold. *)
  let truncated = Engine.simulate ~max_events:1 net ~prefix:p6 ~originators:[ n3 ] in
  let miss1 = Metrics.find_counter "engine.warm_resume_misses" in
  let from_truncated =
    Engine.simulate ~from:truncated net ~prefix:p6 ~originators:[ n3 ]
  in
  check_bool "truncated seed falls back cold" true
    (Engine.converged from_truncated);
  check_int "truncated miss counted" (miss1 + 1)
    (Metrics.find_counter "engine.warm_resume_misses")

(* -- Pool slot timings -- *)

(* Exact retry accounting needs a quiet pool: ambient RD_FAULTS would
   inject extra transient failures into the batch, so pin it off. *)
let pool_slot_timings () =
  let prior = Runtime.current () in
  Runtime.set { prior with faults = None };
  Fun.protect ~finally:(fun () -> Runtime.set prior)
  @@ fun () ->
  let n = 64 in
  let failing = 7 in
  let attempts = Array.make n 0 in
  let timings = Array.make n None in
  let retried0 = Metrics.find_counter "pool.retried" in
  let tasks0 = Metrics.find_counter "pool.tasks" in
  let slots0 =
    match Metrics.value "pool.slot_us" with
    | Some (Metrics.Histogram { count; _ }) -> count
    | _ -> 0
  in
  let results =
    Pool.map_result ~jobs:4
      ~on_slot:(fun i t -> timings.(i) <- Some t)
      (fun i ->
        attempts.(i) <- attempts.(i) + 1;
        if i = failing && attempts.(i) = 1 then failwith "transient";
        i * 2)
      (List.init n (fun i -> i))
  in
  check_bool "every slot recovered" true
    (List.for_all Result.is_ok results);
  check_int "retry recorded in metrics" (retried0 + 1)
    (Metrics.find_counter "pool.retried");
  check_int "batch size recorded" (tasks0 + n)
    (Metrics.find_counter "pool.tasks");
  (match Metrics.value "pool.slot_us" with
  | Some (Metrics.Histogram { count; _ }) ->
      check_int "one slot_us sample per task" (slots0 + n) count
  | _ -> Alcotest.fail "pool.slot_us histogram missing");
  Array.iteri
    (fun i t ->
      match t with
      | None -> Alcotest.fail (Printf.sprintf "no timing for slot %d" i)
      | Some (t : Pool.slot_timing) ->
          check_bool
            (Printf.sprintf "slot %d retried flag" i)
            (i = failing) t.Pool.retried;
          check_bool "duration non-negative" true (t.Pool.dur_us >= 0))
    timings

(* -- Tracing -- *)

let trace_modes () =
  let prior = Trace.mode () in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_mode prior;
      Trace.reset ())
    (fun () ->
      (* Off: nothing is recorded. *)
      Trace.set_mode Trace.Off;
      Trace.reset ();
      Trace.with_span "test.span.off" (fun () -> ());
      check_int "off records nothing" 0 (Trace.event_count ());
      check_bool "off disabled" true (not (Trace.enabled ()));
      (* Summary: spans are recorded and aggregated by name. *)
      Trace.set_mode Trace.Summary;
      Trace.with_span "test.span.sum" (fun () -> ());
      Trace.with_span "test.span.sum" (fun () -> ());
      Trace.instant "test.mark";
      check_int "three events recorded" 3 (Trace.event_count ());
      let rows = Trace.summary () in
      let row =
        List.find_opt (fun (r : Trace.summary_row) -> r.Trace.name = "test.span.sum") rows
      in
      (match row with
      | Some r -> check_int "span aggregated" 2 r.Trace.count
      | None -> Alcotest.fail "summary row missing");
      (* Spans survive a raising body, and re-raise. *)
      check_bool "with_span re-raises" true
        (try
           Trace.with_span "test.span.raise" (fun () -> failwith "boom")
         with Failure msg -> msg = "boom"))

let trace_file_well_formed () =
  let prior = Trace.mode () in
  let path = Filename.temp_file "rd_trace" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_mode prior;
      Trace.reset ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Trace.set_mode (Trace.File path);
      Trace.reset ();
      Trace.with_span "test.file.span"
        ~args:[ ("k", "v\"quoted\"") ]
        (fun () -> ());
      Trace.instant "test.file.mark";
      Trace.write_file path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let contains needle =
        let nl = String.length needle and bl = String.length body in
        let rec go i =
          i + nl <= bl && (String.sub body i nl = needle || go (i + 1))
        in
        go 0
      in
      check_bool "has traceEvents array" true (contains "\"traceEvents\"");
      check_bool "span present as complete event" true
        (contains "\"test.file.span\"" && contains "\"ph\": \"X\"");
      check_bool "instant present" true
        (contains "\"test.file.mark\"" && contains "\"ph\": \"i\"");
      check_bool "args escaped" true (contains "v\\\"quoted\\\"");
      check_bool "balanced braces" true
        (String.length body > 2
        && body.[0] = '{'
        && String.trim body <> ""
        && (String.trim body).[String.length (String.trim body) - 1] = '}'))

(* -- Runtime: env and argv parsing -- *)

let with_env pairs f =
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (k, _) -> Unix.putenv k "") pairs)
    f

let runtime_of_env () =
  with_env
    [
      ("RD_JOBS", "3");
      ("RD_WARM", "verify");
      ("RD_CHECK", "on");
      ("RD_FAULTS", "0.5:7:full");
      ("RD_TRACE", "summary");
      ("RD_PORT", "4179");
      ("RD_DEADLINE_MS", "250");
    ]
    (fun () ->
      let rt = Runtime.of_env () in
      check_bool "jobs" true (rt.Runtime.jobs = Some 3);
      check_bool "warm" true (rt.Runtime.warm = Runtime.Warm_mode.Verify);
      check_bool "check" true (rt.Runtime.check = Runtime.Check_mode.On);
      (match rt.Runtime.faults with
      | Some f ->
          check_bool "fault rate" true (f.Runtime.Fault.rate = 0.5);
          check_int "fault seed" 7 f.Runtime.Fault.seed;
          check_bool "fault scope" true
            (f.Runtime.Fault.scope = Runtime.Fault.Full)
      | None -> Alcotest.fail "faults not parsed");
      check_bool "trace" true (rt.Runtime.trace = Trace.Summary);
      check_bool "port" true (rt.Runtime.port = Some 4179);
      check_int "deadline" 250 rt.Runtime.deadline_ms);
  (* Invalid values warn and fall back; empty means unset. *)
  with_env
    [
      ("RD_JOBS", "banana");
      ("RD_WARM", "");
      ("RD_TRACE", "off");
      ("RD_PORT", "0");
      ("RD_DEADLINE_MS", "-5");
    ]
    (fun () ->
      let rt = Runtime.of_env () in
      check_bool "bad jobs falls back" true (rt.Runtime.jobs = None);
      check_bool "empty warm keeps default" true
        (rt.Runtime.warm = Runtime.Warm_mode.On);
      check_bool "trace off" true (rt.Runtime.trace = Trace.Off);
      check_bool "bad port falls back" true (rt.Runtime.port = None);
      check_int "bad deadline falls back" Runtime.default.Runtime.deadline_ms
        rt.Runtime.deadline_ms)

let runtime_with_argv () =
  let rt0 = Runtime.default in
  (match
     Runtime.with_argv rt0
       [
         "--quick";
         "--jobs";
         "4";
         "--warm=verify";
         "--trace";
         "summary";
         "--check=on";
         "--faults";
         "0.25:9";
         "--json";
         "out.json";
       ]
   with
  | Ok (rt, rest) ->
      check_bool "jobs" true (rt.Runtime.jobs = Some 4);
      check_bool "warm" true (rt.Runtime.warm = Runtime.Warm_mode.Verify);
      check_bool "check" true (rt.Runtime.check = Runtime.Check_mode.On);
      check_bool "trace" true (rt.Runtime.trace = Trace.Summary);
      check_bool "faults" true
        (match rt.Runtime.faults with
        | Some f -> f.Runtime.Fault.rate = 0.25 && f.Runtime.Fault.seed = 9
        | None -> false);
      check_bool "leftovers in order" true
        (rest = [ "--quick"; "--json"; "out.json" ])
  | Error msg -> Alcotest.fail msg);
  (match Runtime.with_argv rt0 [ "-j"; "2" ] with
  | Ok (rt, rest) ->
      check_bool "-j short form" true (rt.Runtime.jobs = Some 2 && rest = [])
  | Error msg -> Alcotest.fail msg);
  check_bool "bad value is a hard error" true
    (match Runtime.with_argv rt0 [ "--jobs"; "zero" ] with
    | Error _ -> true
    | Ok _ -> false);
  (* Explicit zero or negative job counts are rejected, never clamped —
     in both the [--flag value] and [--flag=value] forms. *)
  List.iter
    (fun args ->
      check_bool
        ("rejected: " ^ String.concat " " args)
        true
        (match Runtime.with_argv rt0 args with Error _ -> true | Ok _ -> false))
    [
      [ "--jobs"; "0" ];
      [ "--jobs"; "-3" ];
      [ "--jobs=0" ];
      [ "--jobs=-3" ];
      [ "-j"; "0" ];
      [ "-j=0" ];
      [ "--port"; "0" ];
      [ "--port=70000" ];
      [ "--deadline-ms"; "-1" ];
      [ "--deadline-ms=nope" ];
    ];
  (* The serve knobs parse in both forms. *)
  (match Runtime.with_argv rt0 [ "--port"; "4179"; "--deadline-ms=250" ] with
  | Ok (rt, rest) ->
      check_bool "port" true (rt.Runtime.port = Some 4179);
      check_int "deadline" 250 rt.Runtime.deadline_ms;
      check_bool "no leftovers" true (rest = [])
  | Error msg -> Alcotest.fail msg);
  (match Runtime.with_argv rt0 [ "--port=8080"; "--deadline-ms"; "0" ] with
  | Ok (rt, _) ->
      check_bool "port =form" true (rt.Runtime.port = Some 8080);
      check_int "deadline 0 = none" 0 rt.Runtime.deadline_ms
  | Error msg -> Alcotest.fail msg);
  check_bool "trailing flag is a hard error" true
    (match Runtime.with_argv rt0 [ "--warm" ] with
    | Error _ -> true
    | Ok _ -> false);
  check_string "trace off round-trips" "off"
    (Trace.mode_to_string
       (match Trace.parse "off" with Ok m -> m | Error e -> Alcotest.fail e))

(* One valid and some invalid samples per entry of the knob table.  An
   empty RD_TRACE reads as unset, so the environment keeps the default
   exactly as it does for a rejected value.  [race] and [hb], once
   spellings of RD_CHECK=on, are invalid like any other word. *)
let knob_samples =
  [
    ("RD_JOBS", "3", [ "0" ]);
    ("RD_WARM", "verify", [ "tepid" ]);
    ("RD_CHECK", "on", [ "maybe"; "race"; "hb" ]);
    ("RD_FAULTS", "0.5:7:full", [ "2:7" ]);
    ("RD_TRACE", "summary", [ "" ]);
    ("RD_PORT", "4179", [ "70000" ]);
    ("RD_DEADLINE_MS", "250", [ "-5" ]);
  ]

(* The environment and every spelling of every flag must agree on each
   table entry: a valid value sets the same configuration, an invalid
   one is ignored by [of_env] (with a warning) and refused by
   [with_argv]. *)
let runtime_table_agrees () =
  check_int "one sample per knob" (List.length knob_samples)
    (List.length Runtime.knobs);
  List.iter
    (fun (k : Runtime.knob) ->
      let valid, invalids =
        match List.find_opt (fun (e, _, _) -> e = k.env) knob_samples with
        | Some (_, v, i) -> (v, i)
        | None -> Alcotest.fail ("no sample for " ^ k.env)
      in
      (* The ambient CI mode may set other RD_* variables; both readers
         start from the same base. *)
      let base = with_env [ (k.env, "") ] Runtime.of_env in
      let argv v =
        List.concat_map (fun f -> [ [ f; v ]; [ f ^ "=" ^ v ] ]) k.flags
      in
      with_env [ (k.env, valid) ] (fun () ->
          let from_env = Runtime.of_env () in
          check_bool (k.env ^ " valid sets a field") true (from_env <> base);
          List.iter
            (fun args ->
              match Runtime.with_argv base args with
              | Ok (rt, rest) ->
                  check_bool
                    (String.concat " " args ^ " = " ^ k.env)
                    true
                    (rt = from_env && rest = [])
              | Error msg -> Alcotest.fail msg)
            (argv valid));
      List.iter
        (fun invalid ->
          with_env [ (k.env, invalid) ] (fun () ->
              check_bool
                (Printf.sprintf "%s=%s keeps the default" k.env invalid)
                true
                (Runtime.of_env () = base);
              List.iter
                (fun args ->
                  check_bool
                    ("rejected: " ^ String.concat " " args)
                    true
                    (Result.is_error (Runtime.with_argv base args)))
                (argv invalid)))
        invalids)
    Runtime.knobs;
  with_env [ ("RD_PORT", "70000") ] (fun () ->
      check_bool "RD_PORT=70000 ignored" true
        ((Runtime.of_env ()).Runtime.port = None));
  check_bool "--port 70000 rejected" true
    (Result.is_error (Runtime.with_argv Runtime.default [ "--port"; "70000" ]))

(* A trace mode set through Runtime.set must propagate to the live
   tracer, and a job count below 1 must resolve to one worker. *)
let runtime_propagates () =
  let prior = Runtime.current () in
  Fun.protect
    ~finally:(fun () -> Runtime.set prior)
    (fun () ->
      Runtime.set { prior with trace = Trace.Summary };
      check_bool "tracer sees the mode" true (Trace.mode () = Trace.Summary);
      Runtime.set { prior with trace = Trace.Off };
      check_bool "tracer back off" true (Trace.mode () = Trace.Off);
      Runtime.set { prior with jobs = Some 0 };
      check_int "jobs clamp to 1" 1 (Runtime.jobs ()))

(* -- Off-mode cost -- *)

(* Words [f] allocates in the calling domain.  Exact: allocation in one
   domain does not depend on timing or on the collector's state, and
   the measurement itself allocates nothing. *)
let words f = snd (Metrics.allocated_words f)

(* The count is what a block costs, header included, wherever it
   lands: nothing for nothing, 241 words for a 240-element array on the
   minor heap and 2,401 for a 2,400-element one, which is allocated
   directly in the major heap. *)
let allocated_words_exact () =
  check_int "no-op" 0 (words ignore);
  check_int "240-element array" 241
    (words (fun () -> ignore (Sys.opaque_identity (Array.make 240 0))));
  check_int "2,400-element array" 2401
    (words (fun () -> ignore (Sys.opaque_identity (Array.make 2400 0))))

(* RD_CHECK=off and RD_TRACE=off must cost nothing but loads and
   branches on the hot path.  (a) Each off-mode entry point allocates
   no word.  (b) A fixed refinement at one worker allocates the same
   words and runs the same engine events after the checker and the
   tracer have been switched on and back off, so a hook left installed
   or an off path that starts to allocate fails here; the on runs must
   allocate more, or the measurement could not see the hooks at all. *)
let off_mode_allocates_nothing () =
  let prior = Runtime.current () in
  Fun.protect
    ~finally:(fun () ->
      Runtime.set prior;
      Analysis.Ownership.ensure ();
      Trace.reset ())
  @@ fun () ->
  Runtime.set
    {
      prior with
      jobs = Some 1;
      warm = Runtime.Warm_mode.On;
      faults = None;
      trace = Trace.Off;
    };
  Analysis.Ownership.set Runtime.Check_mode.Off;
  (* Registration allocates by design; only the updates are hot. *)
  let c = Metrics.counter "test.off.counter" in
  let g = Metrics.gauge "test.off.gauge" in
  let h = Metrics.histogram "test.off.hist" in
  let net = Net.create () in
  let obj = "test.off.obj" and site = "test.off.site" in
  let chan = "test.off.chan" in
  List.iter
    (fun (name, call) ->
      check_int (name ^ " allocates nothing") 0
        (words (fun () ->
             for _ = 1 to 10_000 do
               call ()
             done)))
    [
      ("Probe.access", fun () -> Obs.Probe.access ~obj ~site Obs.Probe.Read);
      ("Probe.read", fun () -> Obs.Probe.read ~obj ~site);
      ("Probe.write", fun () -> Obs.Probe.write ~obj ~site);
      ("Probe.release", fun () -> Obs.Probe.release ~chan);
      ("Probe.acquire", fun () -> Obs.Probe.acquire ~chan);
      ("Net.probe_read", fun () -> Net.probe_read net ~site);
      ("Trace.with_span", fun () -> Trace.with_span "test.off.span" ignore);
      ( "Trace.begin_span/end_span",
        fun () -> Trace.end_span (Trace.begin_span "test.off.span") );
      ("Trace.instant", fun () -> Trace.instant "test.off.mark");
      ("Metrics.incr", fun () -> Metrics.incr c);
      ("Metrics.set_gauge", fun () -> Metrics.set_gauge g 3);
      ("Metrics.observe", fun () -> Metrics.observe h 5);
    ];
  let _, data = Core.generate ~conf:Netgen.Conf.tiny () in
  let prepared = Core.prepare data in
  let training = (Core.split ~seed:7 prepared).Evaluation.Split.training in
  let options =
    { Refine.Refiner.default_options with max_iterations = Some 14 }
  in
  let refine () =
    let events = ref 0 in
    let words =
      words (fun () ->
          let r = Core.build ~options prepared ~training in
          events := r.Refine.Refiner.pool.Pool.events)
    in
    (words, !events)
  in
  (* The first run pays lazy initialisation. *)
  ignore (refine ());
  let baseline = refine () in
  let words_events = Alcotest.(pair int int) in
  let cycle label on off =
    on ();
    let on_words, _ = refine () in
    off ();
    Alcotest.check words_events (label ^ " then off = baseline") baseline
      (refine ());
    check_bool (label ^ " allocates more than off") true
      (on_words > fst baseline)
  in
  cycle "RD_CHECK=on"
    (fun () -> Analysis.Ownership.set Runtime.Check_mode.On)
    (fun () -> Analysis.Ownership.set Runtime.Check_mode.Off);
  cycle "RD_TRACE=summary"
    (fun () -> Runtime.set { (Runtime.current ()) with trace = Trace.Summary })
    (fun () -> Runtime.set { (Runtime.current ()) with trace = Trace.Off })

let suite =
  [
    Alcotest.test_case "metrics: registry idempotence" `Quick
      registry_idempotent;
    Alcotest.test_case "metrics: kind mismatch raises" `Quick
      registry_kind_mismatch;
    Alcotest.test_case "metrics: histogram consistency" `Quick
      histogram_consistency;
    Alcotest.test_case "metrics: concurrent counters sum exactly" `Quick
      concurrent_counters;
    Alcotest.test_case "engine: events_drained agrees with state" `Quick
      events_drained_agrees;
    Alcotest.test_case "engine: simulate unifies run/resume" `Quick
      simulate_unifies_run_and_resume;
    Alcotest.test_case "pool: slot timings and retry flag" `Quick
      pool_slot_timings;
    Alcotest.test_case "trace: off/summary modes" `Quick trace_modes;
    Alcotest.test_case "trace: file output well-formed" `Quick
      trace_file_well_formed;
    Alcotest.test_case "runtime: of_env" `Quick runtime_of_env;
    Alcotest.test_case "runtime: with_argv" `Quick runtime_with_argv;
    Alcotest.test_case "runtime: env and argv agree per knob" `Quick
      runtime_table_agrees;
    Alcotest.test_case "runtime: propagation to subsystems" `Quick
      runtime_propagates;
    Alcotest.test_case "metrics: allocated words are exact" `Quick
      allocated_words_exact;
    Alcotest.test_case "off-mode hooks allocate nothing" `Quick
      off_mode_allocates_nothing;
  ]
