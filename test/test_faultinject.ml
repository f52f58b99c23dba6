(* Tests for deterministic fault injection and the pool's recovery from
   injected (and genuine) per-task failures. *)

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

module Fi = Simulator.Faultinject
module Runtime = Simulator.Runtime
module Fault = Runtime.Fault

(* Every test overrides the ambient configuration and restores it, so
   running the suite under RD_FAULTS is unaffected. *)
let with_faults faults f =
  let prior = Runtime.current () in
  Runtime.set { prior with faults };
  Fun.protect ~finally:(fun () -> Runtime.set prior) f

let parse_cases () =
  check_bool "empty disables" true (Fault.parse "" = Ok None);
  check_bool "0 disables" true (Fault.parse "0" = Ok None);
  check_bool "off disables" true (Fault.parse "off" = Ok None);
  check_bool "zero rate disables" true (Fault.parse "0.0:9" = Ok None);
  check_bool "transient scope" true
    (Fault.parse "0.05:42"
    = Ok (Some { Fault.rate = 0.05; seed = 42; scope = Fault.Transient }));
  check_bool "full scope" true
    (Fault.parse " 0.5:7:full "
    = Ok (Some { Fault.rate = 0.5; seed = 7; scope = Fault.Full }));
  let is_error = function Error _ -> true | Ok _ -> false in
  check_bool "missing seed rejected" true (is_error (Fault.parse "0.05"));
  check_bool "rate above 1 rejected" true (is_error (Fault.parse "1.5:3"));
  check_bool "negative rate rejected" true (is_error (Fault.parse "-0.1:3"));
  check_bool "bad rate rejected" true (is_error (Fault.parse "x:3"));
  check_bool "bad seed rejected" true (is_error (Fault.parse "0.1:x"));
  check_bool "bad scope rejected" true (is_error (Fault.parse "0.1:3:always"));
  check_bool "too many fields rejected" true (is_error (Fault.parse "1:2:3:4"))

(* Which indices of an [n]-batch throw on first attempt, applying the
   wrapped task in the given order. *)
let thrown_set t n order =
  with_faults (Some t) (fun () ->
      let wrapped = Fi.wrap_tasks ~n Fun.id in
      List.filter_map
        (fun i ->
          match wrapped i i with
          | _ -> None
          | exception Fi.Injected j ->
              check_int "payload is the index" i j;
              Some i)
        order)

let deterministic_choice () =
  let t = { Fault.rate = 0.3; seed = 11; scope = Fault.Transient } in
  let all = List.init 64 Fun.id in
  let forward = thrown_set t 64 all in
  let backward = thrown_set t 64 (List.rev all) in
  check_bool "some tasks chosen" true (forward <> []);
  check_bool "not all tasks chosen" true (List.length forward < 64);
  check_bool "choice independent of order" true
    (List.sort compare forward = List.sort compare backward);
  let reseeded = thrown_set { t with Fault.seed = 12 } 64 all in
  check_bool "seed changes the choice" true
    (List.sort compare reseeded <> List.sort compare forward)

let transient_retry_recovers () =
  with_faults
    (Some { Fault.rate = 1.0; seed = 5; scope = Fault.Transient })
    (fun () ->
      let wrapped = Fi.wrap_tasks ~n:8 (fun x -> x * 2) in
      for i = 0 to 7 do
        (match wrapped i i with
        | _ -> Alcotest.fail "rate 1.0 must throw on first attempt"
        | exception Fi.Injected _ -> ());
        check_int "second attempt succeeds" (2 * i) (wrapped i i)
      done)

let full_scope_kills_and_shrinks () =
  let t = { Fault.rate = 1.0; seed = 5; scope = Fault.Full } in
  with_faults (Some t) (fun () ->
      let wrapped = Fi.wrap_tasks ~n:64 Fun.id in
      let killed = ref 0 and recovered = ref 0 in
      for i = 0 to 63 do
        match wrapped i i with
        | _ -> Alcotest.fail "rate 1.0 must throw on first attempt"
        | exception Fi.Injected _ -> (
            match wrapped i i with
            | _ -> incr recovered
            | exception Fi.Injected _ -> incr killed)
      done;
      (* The permanent-kill sub-population runs at rate/4. *)
      check_bool "kill sub-population exists" true (!killed > 0);
      check_bool "most tasks still recover" true (!recovered > !killed);
      check_int "budgets shrink to 1" 1 (Fi.shrink_budget ~key:123 1000));
  with_faults
    (Some { t with Fault.scope = Fault.Transient })
    (fun () ->
      check_int "transient scope never shrinks" 1000
        (Fi.shrink_budget ~key:123 1000));
  with_faults None (fun () ->
      check_int "disabled is the identity" 1000
        (Fi.shrink_budget ~key:123 1000))

let pool_recovers_transient () =
  with_faults
    (Some { Fault.rate = 0.5; seed = 3; scope = Fault.Transient })
    (fun () ->
      let inputs = List.init 40 Fun.id in
      let recovered = ref [] in
      let results =
        Simulator.Pool.map_result ~jobs:4
          ~on_recover:(fun i -> recovered := i :: !recovered)
          (fun x -> x * x)
          inputs
      in
      check_int "all inputs answered" 40 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int "value survives the retry" (i * i) v
          | Error _ -> Alcotest.failf "input %d not recovered" i)
        results;
      check_bool "retries actually happened" true (!recovered <> []);
      (* Pool.map gives the same answers transparently. *)
      let plain =
        Simulator.Pool.map ~jobs:4 (fun x -> x * x) inputs
      in
      check_bool "map transparent under transient faults" true
        (plain = List.map (fun x -> x * x) inputs))

let pool_reports_permanent_failure () =
  with_faults None (fun () ->
      let f x = if x = 2 then failwith "boom" else x in
      let results = Simulator.Pool.map_result ~jobs:2 f [ 0; 1; 2; 3 ] in
      (match List.nth results 2 with
      | Error e ->
          check_int "failing index named" 2 e.Simulator.Pool.index;
          check_bool "exception preserved" true
            (e.Simulator.Pool.exn = Failure "boom")
      | Ok _ -> Alcotest.fail "index 2 must fail");
      check_int "other slots survive the batch" 3
        (List.length (List.filter Result.is_ok results));
      match Simulator.Pool.map ~jobs:2 f [ 0; 1; 2; 3 ] with
      | _ -> Alcotest.fail "map must re-raise a permanent failure"
      | exception Failure msg ->
          check_bool "original exception re-raised" true (msg = "boom"))

(* The refine + predict pipeline on a tiny world: transient faults are
   all recovered by the pool's sequential retry, so every result equals
   the clean run's.  Full-scope faults must not raise: each stage's pool
   stats count its retries, and the damage shows as quarantined and
   unresolved prefixes.  On this world a shrunk engine budget truncates
   a prefix; no task is killed, because seed 42 first kills batch index
   169 and every batch here is shorter. *)
let pipeline_under_faults () =
  let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 4 } in
  let prepared =
    Core.prepare (Netgen.Groundtruth.observe (Netgen.Groundtruth.build conf))
  in
  let splits = Core.split ~seed:7 prepared in
  let run faults =
    with_faults faults @@ fun () ->
    let result =
      Core.build prepared ~training:splits.Evaluation.Split.training
    in
    (* A fresh state table sends the prediction batch through the pool,
       and so through the injector. *)
    let prediction =
      Evaluation.Predict.evaluate result.Refine.Refiner.model
        ~states:(Hashtbl.create 64) splits.Evaluation.Split.validation
    in
    (result, prediction)
  in
  let inject scope = Some { Fault.rate = 0.05; seed = 42; scope } in
  let retried label (r : Refine.Refiner.result)
      (p : Evaluation.Predict.report) =
    List.iter
      (fun (stage, (s : Simulator.Pool.stats)) ->
        check_bool (Printf.sprintf "%s: %s retried" label stage) true
          (s.Simulator.Pool.retried > 0))
      [ ("build", r.Refine.Refiner.pool); ("predict", p.Evaluation.Predict.pool) ]
  in
  let clean_r, clean_p = run None in
  let trans_r, trans_p = run (inject Fault.Transient) in
  check_int "transient: matched" clean_r.Refine.Refiner.matched
    trans_r.Refine.Refiner.matched;
  check_int "transient: iterations" clean_r.Refine.Refiner.iterations
    trans_r.Refine.Refiner.iterations;
  check_bool "transient: totals" true
    (clean_p.Evaluation.Predict.totals = trans_p.Evaluation.Predict.totals);
  check_bool "transient: coverage" true
    (clean_p.Evaluation.Predict.coverage
    = trans_p.Evaluation.Predict.coverage);
  retried "transient" trans_r trans_p;
  check_int "transient: nothing lost" 0
    (Simulator.Pool.merge trans_r.Refine.Refiner.pool
       trans_p.Evaluation.Predict.pool)
      .Simulator.Pool.failed;
  let full_r, full_p = run (inject Fault.Full) in
  retried "full" full_r full_p;
  check_bool "full: damage reported" true
    (full_r.Refine.Refiner.quarantined_prefixes > 0
    && full_p.Evaluation.Predict.totals.Evaluation.Predict.unresolved > 0)

(* A quarantined prefix is retried in every refinement iteration.  On
   the seed-4 tiny world under full faults, a shrunk budget truncates
   the same prefixes on every run and no task is killed, so each
   iteration's batch reruns exactly the quarantine: its non-converged
   results, and the growth of [engine.truncated] over the iteration,
   both equal the quarantine size.  Quarantined prefixes hold no
   converged state, so they run cold in every warm mode. *)
let refiner_retries_quarantine () =
  let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 4 } in
  let prepared =
    Core.prepare (Netgen.Groundtruth.observe (Netgen.Groundtruth.build conf))
  in
  let splits = Core.split ~seed:7 prepared in
  let truncated () = Obs.Metrics.find_counter "engine.truncated" in
  let last = ref 0 in
  let seen = ref [] in
  let on_iteration (st : Refine.Refiner.iter_stat) =
    let now = truncated () in
    seen := (st, now - !last) :: !seen;
    last := now
  in
  let result =
    with_faults (Some { Fault.rate = 0.05; seed = 42; scope = Fault.Full })
    @@ fun () ->
    last := truncated ();
    Core.build ~on_iteration prepared ~training:splits.Evaluation.Split.training
  in
  let history = List.rev !seen in
  check_bool "several iterations" true (List.length history >= 2);
  check_bool "quarantine after the run" true
    (result.Refine.Refiner.quarantined_prefixes > 0);
  List.iter
    (fun ((st : Refine.Refiner.iter_stat), grew) ->
      let label what =
        Printf.sprintf "iteration %d: %s" st.Refine.Refiner.iteration what
      in
      let q = st.Refine.Refiner.quarantined in
      check_bool (label "a prefix is quarantined") true (q > 0);
      check_int (label "no task lost") 0
        st.Refine.Refiner.pool.Simulator.Pool.failed;
      check_bool (label "the batch holds the quarantine") true
        (st.Refine.Refiner.pool.Simulator.Pool.prefixes >= q);
      check_int (label "the batch reran the quarantine") q
        st.Refine.Refiner.pool.Simulator.Pool.non_converged;
      check_int (label "engine.truncated grew by the quarantine") q grew)
    history

let suite =
  [
    Alcotest.test_case "parse cases" `Quick parse_cases;
    Alcotest.test_case "deterministic choice" `Quick deterministic_choice;
    Alcotest.test_case "transient retry recovers" `Quick
      transient_retry_recovers;
    Alcotest.test_case "full scope kills and shrinks" `Quick
      full_scope_kills_and_shrinks;
    Alcotest.test_case "pool recovers transient faults" `Quick
      pool_recovers_transient;
    Alcotest.test_case "pool reports permanent failure" `Quick
      pool_reports_permanent_failure;
    Alcotest.test_case "pipeline under faults" `Quick pipeline_under_faults;
    Alcotest.test_case "refiner retries its quarantine" `Quick
      refiner_retries_quarantine;
  ]
