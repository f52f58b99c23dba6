(* Tests for the churn layer: event codec and normalization, the
   deterministic scenario generators, and the replay driver — warm
   equivalence, exact restore, hijack accounting, fault containment,
   and fuzzed streams that must never crash. *)

open Bgp
module Net = Simulator.Net
module Qrmodel = Asmodel.Qrmodel
module Event = Stream.Event
module Streamgen = Stream.Streamgen
module Replay = Stream.Replay

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

let model () = Qrmodel.initial graph

(* Run [f] under warm mode [warm], restoring the ambient runtime. *)
let with_warm warm f =
  let prior = Simulator.Runtime.current () in
  Simulator.Runtime.set { prior with Simulator.Runtime.warm };
  Fun.protect ~finally:(fun () -> Simulator.Runtime.set prior) f

let known_as = Topology.Asgraph.mem_node graph

let sub_of ?(bits = 1) p =
  Prefix.make (Prefix.network p) (min 32 (Prefix.length p + bits))

(* -- event codec ------------------------------------------------------ *)

let event_roundtrip () =
  let p = Asn.origin_prefix 3 in
  let all =
    [
      Event.make ~ts_ms:0 (Event.Announce { prefix = p; origin = 5 });
      Event.make ~ts_ms:10 (Event.Withdraw { prefix = p; origin = 5 });
      Event.make ~ts_ms:20 (Event.Session_down { a = 3; b = 4 });
      Event.make ~ts_ms:30 (Event.Session_up { a = 3; b = 4 });
      Event.make ~ts_ms:40 (Event.Link_fail { a = 1; b = 2 });
      Event.make ~ts_ms:50 (Event.Link_restore { a = 1; b = 2 });
      Event.make ~ts_ms:60 (Event.Hijack { prefix = sub_of p; attacker = 5 });
      Event.make ~ts_ms:70
        (Event.Hijack_end { prefix = sub_of p; attacker = 5 });
    ]
  in
  List.iter
    (fun ev ->
      match Event.of_string (Event.to_string ev) with
      | Error e -> Alcotest.failf "reparse of %S: %s" (Event.to_string ev) e
      | Ok ev' ->
          check_bool (Event.to_string ev) true (Event.equal ev ev'))
    all

let event_rejects_garbage () =
  List.iter
    (fun s ->
      check_bool s true (Result.is_error (Event.of_string s)))
    [
      "";
      "announce";
      "10 announce";
      "10 announce 1.2.3.0/24";
      "10 announce notaprefix 5";
      "x announce 1.2.3.0/24 5";
      "10 frobnicate 3 4";
      "10 session-down 3 4 5 6";
      "10 session-down 3 x";
      (* An overlong prefix length is an Error, not an exception. *)
      "10 announce 3.0.0.0/99999999999999999999999 5";
    ]

let normalize_is_deterministic () =
  let p = Asn.origin_prefix 2 in
  let good ts action = Event.make ~ts_ms:ts action in
  let stream =
    [
      (* out of order *)
      good 30 (Event.Session_up { a = 3; b = 4 });
      good 10 (Event.Session_down { a = 3; b = 4 });
      (* duplicate timestamp: input order must be kept *)
      good 20 (Event.Withdraw { prefix = p; origin = 2 });
      good 20 (Event.Announce { prefix = p; origin = 2 });
      (* rejects: negative ts, unknown AS, self link *)
      good (-1) (Event.Announce { prefix = p; origin = 2 });
      good 40 (Event.Session_down { a = 3; b = 99 });
      good 50 (Event.Link_fail { a = 4; b = 4 });
    ]
  in
  let accepted, rejected = Event.normalize ~known_as stream in
  check_int "three rejects" 3 (List.length rejected);
  check_bool "sorted by timestamp" true
    (List.map (fun e -> e.Event.ts_ms) accepted = [ 10; 20; 20; 30 ]);
  (* Equal timestamps keep input order: withdraw stays before announce. *)
  (match List.filter (fun e -> e.Event.ts_ms = 20) accepted with
  | [ { Event.action = Event.Withdraw _; _ };
      { Event.action = Event.Announce _; _ } ] ->
      ()
  | _ -> Alcotest.fail "duplicate-timestamp order not preserved");
  (* Same input, same output — bit-identical on a second pass. *)
  let accepted', rejected' = Event.normalize ~known_as stream in
  check_bool "idempotent accept list" true
    (List.for_all2 Event.equal accepted accepted');
  check_int "idempotent reject list" (List.length rejected)
    (List.length rejected')

(* -- streamgen -------------------------------------------------------- *)

let streamgen_deterministic () =
  let m = model () in
  List.iter
    (fun name ->
      let gen =
        match Streamgen.of_name name with
        | Some g -> g
        | None -> Alcotest.failf "scenario %s missing" name
      in
      let run () = gen ~events:24 m (Random.State.make [| 7 |]) in
      let s1 = run () and s2 = run () in
      check_bool (name ^ " same seed, same stream") true
        (List.length s1 = List.length s2 && List.for_all2 Event.equal s1 s2);
      (* Generated streams are already well-formed for their model. *)
      let accepted, rejected = Event.normalize ~known_as s1 in
      check_int (name ^ " nothing rejected") 0 (List.length rejected);
      check_int (name ^ " nothing dropped") (List.length s1)
        (List.length accepted))
    Streamgen.scenario_names

(* -- replay ----------------------------------------------------------- *)

let baseline_fingerprint () =
  let t, _ = Replay.run (model ()) [] in
  Replay.fingerprint t

let replay_deterministic () =
  let run () =
    let m = model () in
    let stream = Streamgen.mixed ~events:32 m (Random.State.make [| 11 |]) in
    Replay.run m stream
  in
  let t1, r1 = run () and t2, r2 = run () in
  check_int "same events" r1.Replay.events r2.Replay.events;
  check_int "same reconvergences" r1.Replay.reconvergences
    r2.Replay.reconvergences;
  check_bool "same fingerprint" true
    (Replay.fingerprint t1 = Replay.fingerprint t2);
  check_bool "same per-class counts" true
    (List.map
       (fun (c, cs) -> (c, { cs with Replay.cs_wall_s = 0.0 }))
       r1.Replay.classes
    = List.map
        (fun (c, cs) -> (c, { cs with Replay.cs_wall_s = 0.0 }))
        r2.Replay.classes)

let withdraw_reannounce_restores () =
  let m = model () in
  let p = Asn.origin_prefix 3 in
  let stream =
    [
      Event.make ~ts_ms:0 (Event.Withdraw { prefix = p; origin = 3 });
      Event.make ~ts_ms:10 (Event.Announce { prefix = p; origin = 3 });
    ]
  in
  let t, report = Replay.run m stream in
  check_int "no quarantine" 0 (List.length report.Replay.quarantine);
  check_bool "origins restored" true (Replay.origins t p = [ 3 ]);
  check_bool "baseline routing restored" true
    (Replay.fingerprint t = baseline_fingerprint ())

let session_roundtrip_restores () =
  let m = model () in
  let denies0, _ = Net.count_policies m.Qrmodel.net in
  let stream =
    [
      Event.make ~ts_ms:0 (Event.Session_down { a = 4; b = 5 });
      Event.make ~ts_ms:10 (Event.Session_up { a = 4; b = 5 });
      Event.make ~ts_ms:20 (Event.Link_fail { a = 1; b = 2 });
      Event.make ~ts_ms:30 (Event.Link_restore { a = 1; b = 2 });
    ]
  in
  let t, report = Replay.run m stream in
  let denies1, _ = Net.count_policies m.Qrmodel.net in
  check_int "denies restored exactly" denies0 denies1;
  check_bool "baseline routing restored" true
    (Replay.fingerprint t = baseline_fingerprint ());
  (* Something actually happened in between. *)
  check_bool "events reconverged prefixes" true
    (report.Replay.reconvergences > 0)

let overlapping_downs_compose () =
  (* A session-down inside a link-fail on the same AS pair: each layer
     restores only the denies it added, so the interleaved bring-ups
     still end at the exact baseline. *)
  let m = model () in
  let denies0, _ = Net.count_policies m.Qrmodel.net in
  let stream =
    [
      Event.make ~ts_ms:0 (Event.Session_down { a = 4; b = 5 });
      Event.make ~ts_ms:10 (Event.Link_fail { a = 4; b = 5 });
      Event.make ~ts_ms:20 (Event.Session_up { a = 4; b = 5 });
      Event.make ~ts_ms:30 (Event.Link_restore { a = 4; b = 5 });
    ]
  in
  let t, _ = Replay.run m stream in
  let denies1, _ = Net.count_policies m.Qrmodel.net in
  check_int "denies restored exactly" denies0 denies1;
  check_bool "baseline routing restored" true
    (Replay.fingerprint t = baseline_fingerprint ())

let subprefix_hijack_pollutes () =
  let m = model () in
  let victim = Asn.origin_prefix 3 in
  let hijacked = sub_of victim in
  let stream =
    [
      Event.make ~ts_ms:0 (Event.Hijack { prefix = hijacked; attacker = 5 });
      Event.make ~ts_ms:100
        (Event.Hijack_end { prefix = hijacked; attacker = 5 });
    ]
  in
  let reports = ref [] in
  let t, report =
    Replay.run ~on_event:(fun r -> reports := r :: !reports) m stream
  in
  (match List.rev !reports with
  | [ hij; fin ] ->
      check_bool "classified sub-prefix" true (hij.Replay.cls = Replay.Chijack_sub);
      check_bool "catchment polluted" true (hij.Replay.polluted > 0);
      check_bool "pollution drains after hijack-end" true
        (fin.Replay.polluted = 0)
  | _ -> Alcotest.fail "expected two event reports");
  check_bool "attacker origination withdrawn" true
    (Replay.origins t hijacked = []);
  check_bool "hijacked prefix still tracked" true
    (List.mem hijacked (Replay.tracked t));
  check_int "no quarantine" 0 (List.length report.Replay.quarantine)

let moas_hijack_classifies () =
  let m = model () in
  let victim = Asn.origin_prefix 3 in
  let stream =
    [ Event.make ~ts_ms:0 (Event.Hijack { prefix = victim; attacker = 5 }) ]
  in
  let t, report = Replay.run m stream in
  check_bool "classified MOAS" true
    (List.mem_assoc Replay.Chijack_moas report.Replay.classes);
  check_bool "both origins live" true (Replay.origins t victim = [ 3; 5 ])

let warm_matches_cold () =
  (* Warm per-event reconvergence must be behaviourally invisible:
     the same stream over the same randomized world, replayed warm and
     cold, ends at the same routing fingerprint. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 10 in
      let* extra = int_range 0 n in
      let* tree = list_repeat (n - 1) (int_bound 1_000_000) in
      let* pairs = list_repeat extra (pair (int_bound 1_000_000) (int_bound 1_000_000)) in
      let* seed = int_bound 1_000_000 in
      let edges =
        List.mapi (fun i r -> (2 + i, 1 + (r mod (i + 1)))) tree
        @ List.map (fun (a, b) -> (1 + (a mod n), 1 + (b mod n))) pairs
      in
      return (Topology.Asgraph.of_edges edges, seed))
  in
  let arb =
    QCheck.make
      ~print:(fun (g, seed) ->
        Printf.sprintf "seed=%d edges=%s" seed
          (String.concat ","
             (List.map
                (fun (a, b) -> Printf.sprintf "%d-%d" a b)
                (Topology.Asgraph.edges g))))
      gen
  in
  let prop (g, seed) =
    let run mode =
      with_warm mode @@ fun () ->
      let m = Qrmodel.initial g in
      let stream = Streamgen.mixed ~events:24 m (Random.State.make [| seed |]) in
      let t, report = Replay.run m stream in
      (Replay.fingerprint t, report)
    in
    let warm_fp, warm = run Simulator.Runtime.Warm_mode.On in
    let cold_fp, cold = run Simulator.Runtime.Warm_mode.Off in
    warm_fp = cold_fp
    && warm.Replay.quarantine = [] && cold.Replay.quarantine = []
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"warm replay = cold replay" ~count:20 arb prop)

let mixed_stream m = Streamgen.mixed ~events:48 m (Random.State.make [| 42 |])

(* A 48-event stream of every class, replayed warm and cold: nothing is
   rejected, both end in the same routing, warm resumes drain fewer
   engine events, and no prefix is left quarantined. *)
let mixed_warm_saves_work () =
  let run warm =
    with_warm warm @@ fun () ->
    let m = model () in
    let t, report = Replay.run m (mixed_stream m) in
    (Replay.fingerprint t, report)
  in
  let warm_fp, warm = run Simulator.Runtime.Warm_mode.On in
  let cold_fp, cold = run Simulator.Runtime.Warm_mode.Off in
  let engine_events (r : Replay.report) =
    List.fold_left
      (fun acc (_, cs) -> acc + cs.Replay.cs_engine_events)
      0 r.Replay.classes
  in
  check_bool "events replayed" true (warm.Replay.events > 0);
  check_int "nothing rejected" 0 warm.Replay.rejected;
  check_bool "same final routing" true (warm_fp = cold_fp);
  check_bool "warm drains fewer events" true
    (engine_events warm < engine_events cold);
  check_int "no quarantine" 0 (List.length warm.Replay.quarantine)

(* [ases_shifted] against a brute-force recount: every AS's selected
   path set, compared between the cached states before and after each
   event.  Run on the initial model and on one whose ASes 1 and 4 own a
   second quasi-router preferring its last eBGP neighbour, so the two
   quasi-routers of an AS select different paths and one can shift
   while the other does not. *)
let shift_count_matches_recount () =
  let recount (m : Qrmodel.t) before after =
    let net = m.Qrmodel.net in
    let paths states p asn =
      match List.assoc_opt p states with
      | Some st -> Simulator.Engine.selected_paths net st asn
      | None -> []
    in
    List.fold_left
      (fun k (p, _) ->
        List.fold_left
          (fun k asn ->
            if paths before p asn <> paths after p asn then k + 1 else k)
          k
          (Topology.Asgraph.nodes m.Qrmodel.graph))
      0 after
  in
  let check_model label (m : Qrmodel.t) =
    let stream, rejected =
      Event.normalize ~known_as
        (Streamgen.mixed ~events:48 m (Random.State.make [| 42 |]))
    in
    check_int (label ^ ": nothing rejected") 0 (List.length rejected);
    let rp = Replay.create m in
    let total =
      List.fold_left
        (fun total ev ->
          let before = Replay.states rp in
          let r = Replay.apply rp ev in
          check_int (label ^ ": no quarantine") 0
            (List.length (Replay.quarantined rp));
          check_int
            (Printf.sprintf "%s: shift count of %s" label (Event.to_string ev))
            (recount m before (Replay.states rp))
            r.Replay.ases_shifted;
          total + r.Replay.ases_shifted)
        0 stream
    in
    check_bool (label ^ ": some event shifted paths") true (total > 0)
  in
  check_model "initial" (model ());
  let m = model () in
  let net = m.Qrmodel.net in
  List.iter
    (fun asn ->
      let d = Net.duplicate_node net (List.hd (Net.nodes_of_as net asn)) in
      let ebgp =
        List.filter
          (fun (s, _) -> Net.session_kind net d s = Net.Ebgp)
          (Net.sessions_of net d)
      in
      let s, _ = List.nth ebgp (List.length ebgp - 1) in
      Net.set_import_lpref net d s 200)
    [ 1; 4 ];
  check_model "duplicated" m

let verify_mode_agrees () =
  let m = model () in
  let stream = Streamgen.mixed ~events:32 m (Random.State.make [| 5 |]) in
  let _, report =
    with_warm Simulator.Runtime.Warm_mode.Verify @@ fun () ->
    Replay.run m stream
  in
  check_int "no warm/cold divergence" 0 report.Replay.divergences;
  check_int "no quarantine" 0 (List.length report.Replay.quarantine)

let transient_faults_recover () =
  let ambient = Simulator.Runtime.current () in
  let set_faults faults = Simulator.Runtime.set { ambient with faults } in
  set_faults
    (Some
       { Simulator.Runtime.Fault.rate = 0.08; seed = 42; scope = Transient });
  Fun.protect
    ~finally:(fun () -> Simulator.Runtime.set ambient)
    (fun () ->
      let m = model () in
      let stream = Streamgen.flap_storm m (Random.State.make [| 9 |]) in
      let t, report = Replay.run m stream in
      check_int "no unrecovered failures" 0 report.Replay.failed;
      check_int "no quarantine leaks" 0 (List.length report.Replay.quarantine);
      check_bool "replay completed" true
        (report.Replay.events = List.length stream);
      (* The injected failures must actually have fired. *)
      check_bool "retries happened" true (report.Replay.retried > 0);
      let m = model () in
      let _, mixed = Replay.run m (mixed_stream m) in
      check_int "mixed: no unrecovered failures" 0 mixed.Replay.failed;
      check_int "mixed: no quarantine leaks" 0
        (List.length mixed.Replay.quarantine);
      check_bool "routing matches the clean replay" true
        (Replay.fingerprint t
        =
        let m = model () in
        let stream = Streamgen.flap_storm m (Random.State.make [| 9 |]) in
        set_faults None;
        Replay.fingerprint (fst (Replay.run m stream))))

let full_faults_quarantine_not_fatal () =
  (* Permanent failures and shrunk budgets: the replay must complete,
     reporting the damage as quarantine instead of raising. *)
  let ambient = Simulator.Runtime.current () in
  Simulator.Runtime.set
    {
      ambient with
      faults =
        Some { Simulator.Runtime.Fault.rate = 0.10; seed = 7; scope = Full };
    };
  Fun.protect
    ~finally:(fun () -> Simulator.Runtime.set ambient)
    (fun () ->
      let m = model () in
      let stream = Streamgen.mixed ~events:24 m (Random.State.make [| 3 |]) in
      let _, report = Replay.run m stream in
      check_bool "replay completed" true
        (report.Replay.events = List.length stream))

(* -- fuzz ------------------------------------------------------------- *)

let fuzz_streams_never_crash () =
  (* Random (often nonsensical) streams: unknown ASes, self links,
     negative timestamps, duplicate events, out-of-order input.
     Normalize must reject deterministically and replay must absorb
     whatever survives without raising. *)
  let gen_event =
    QCheck.Gen.(
      let* ts = int_range (-50) 200 in
      let* a = int_range 0 9 in
      let* b = int_range 0 9 in
      let* kind = int_bound 7 in
      let p = Asn.origin_prefix (max 1 a) in
      let action =
        match kind with
        | 0 -> Event.Announce { prefix = p; origin = b }
        | 1 -> Event.Withdraw { prefix = p; origin = b }
        | 2 -> Event.Session_down { a; b }
        | 3 -> Event.Session_up { a; b }
        | 4 -> Event.Link_fail { a; b }
        | 5 -> Event.Link_restore { a; b }
        | 6 -> Event.Hijack { prefix = sub_of p; attacker = b }
        | _ -> Event.Hijack_end { prefix = sub_of p; attacker = b }
      in
      return (Event.make ~ts_ms:ts action))
  in
  let arb =
    QCheck.make
      ~print:(fun evs -> String.concat "; " (List.map Event.to_string evs))
      QCheck.Gen.(list_size (int_range 0 30) gen_event)
  in
  let prop stream =
    let m = model () in
    let accepted, rejected = Event.normalize ~known_as stream in
    let _, report = Replay.run m stream in
    (* Replay normalizes internally: its tallies must agree. *)
    report.Replay.events = List.length accepted
    && report.Replay.rejected = List.length rejected
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"fuzzed streams never crash" ~count:60 arb prop)

let malformed_text_never_crashes () =
  let arb = QCheck.make ~print:String.escaped QCheck.Gen.(string_size (int_range 0 40)) in
  let prop s =
    match Event.of_string s with
    | Ok ev -> Event.equal ev (Result.get_ok (Event.of_string (Event.to_string ev)))
    | Error _ -> true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"of_string total" ~count:200 arb prop)

(* Driver state survives across drivers via persist/resume: the up half
   of a pair applied by a successor driver still finds the down placed
   by its predecessor (before the fix it was a silent no-op and the
   down's denies leaked forever). *)
let persist_resumes_across_drivers () =
  let m = model () in
  let net = m.Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  let rp = Replay.create m in
  let fp0 = Replay.fingerprint rp in
  ignore
    (Replay.apply rp (Event.make ~ts_ms:0 (Event.Session_down { a = 4; b = 5 })));
  let fp_down = Replay.fingerprint rp in
  check_bool "down changed routing" true (fp_down <> fp0);
  let rp2 =
    Replay.create ~states:(Replay.states rp) ~resume:(Replay.persist rp) m
  in
  check_bool "carried state is bit-identical" true
    (Replay.fingerprint rp2 = fp_down);
  ignore
    (Replay.apply rp2 (Event.make ~ts_ms:10 (Event.Session_up { a = 4; b = 5 })));
  check_bool "up matched the earlier driver's down" true
    (Replay.fingerprint rp2 = fp0);
  let denies1, _ = Net.count_policies net in
  check_int "denies fully lifted" denies0 denies1

(* The quarantine crosses a driver handoff too: a prefix left without a
   converged state is missing from [Replay.states], so the successor
   seeded from them holds none for it either, keeps it quarantined, and
   retries it on its first event.  Full faults quarantine a truncated
   prefix (seed 1) and a failed one (seed 3) at creation; the successor
   runs without faults, so its retry recovers. *)
let quarantine_survives_handoff () =
  let ambient = Simulator.Runtime.current () in
  Fun.protect ~finally:(fun () -> Simulator.Runtime.set ambient) @@ fun () ->
  List.iter
    (fun (label, seed) ->
      let m = model () in
      Simulator.Runtime.set
        {
          ambient with
          faults =
            Some { Simulator.Runtime.Fault.rate = 0.3; seed; scope = Full };
        };
      let rp = Replay.create m in
      let stuck = Replay.quarantined rp in
      check_bool (label ^ ": a prefix is quarantined") true (stuck <> []);
      check_bool (label ^ ": quarantined by a " ^ label ^ " run") true
        ((Replay.report rp ~rejected:0).Replay.failed > 0 = (label = "failed"));
      Simulator.Runtime.set { ambient with faults = None };
      let rp2 =
        Replay.create ~states:(Replay.states rp) ~resume:(Replay.persist rp) m
      in
      check_bool (label ^ ": still quarantined after the handoff") true
        (Replay.quarantined rp2 = stuck);
      let r =
        Replay.apply rp2
          (Event.make ~ts_ms:0 (Event.Session_down { a = 4; b = 5 }))
      in
      check_bool (label ^ ": retried and recovered on the first event") true
        (r.Replay.recovered = stuck);
      check_int (label ^ ": quarantine empty") 0
        (List.length (Replay.quarantined rp2)))
    [ ("truncated", 1); ("failed", 3) ]

(* The failure path of a churn apply: rollback_net reverse-applies
   exactly the denies one driver placed, restoring the shared net. *)
let rollback_restores_net () =
  let m = model () in
  let net = m.Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  let rp = Replay.create m in
  let fp0 = Replay.fingerprint rp in
  ignore
    (Replay.apply rp (Event.make ~ts_ms:0 (Event.Link_fail { a = 4; b = 5 })));
  ignore
    (Replay.apply rp (Event.make ~ts_ms:10 (Event.Session_down { a = 1; b = 2 })));
  check_bool "denies placed" true (fst (Net.count_policies net) > denies0);
  Replay.rollback_net rp;
  check_int "denies rolled back" denies0 (fst (Net.count_policies net));
  let rp2 = Replay.create m in
  check_bool "pre-churn routing restored" true (Replay.fingerprint rp2 = fp0)

let suite =
  [
    Alcotest.test_case "event roundtrip" `Quick event_roundtrip;
    Alcotest.test_case "event rejects garbage" `Quick event_rejects_garbage;
    Alcotest.test_case "normalize is deterministic" `Quick
      normalize_is_deterministic;
    Alcotest.test_case "streamgen deterministic" `Quick streamgen_deterministic;
    Alcotest.test_case "replay deterministic" `Quick replay_deterministic;
    Alcotest.test_case "withdraw/re-announce restores" `Quick
      withdraw_reannounce_restores;
    Alcotest.test_case "session/link roundtrip restores" `Quick
      session_roundtrip_restores;
    Alcotest.test_case "overlapping downs compose" `Quick
      overlapping_downs_compose;
    Alcotest.test_case "sub-prefix hijack pollutes" `Quick
      subprefix_hijack_pollutes;
    Alcotest.test_case "MOAS hijack classifies" `Quick moas_hijack_classifies;
    Alcotest.test_case "warm matches cold" `Quick warm_matches_cold;
    Alcotest.test_case "mixed stream warm saves work" `Quick
      mixed_warm_saves_work;
    Alcotest.test_case "shift count matches recount" `Quick
      shift_count_matches_recount;
    Alcotest.test_case "verify mode agrees" `Quick verify_mode_agrees;
    Alcotest.test_case "transient faults recover" `Quick
      transient_faults_recover;
    Alcotest.test_case "full faults quarantine not fatal" `Quick
      full_faults_quarantine_not_fatal;
    Alcotest.test_case "fuzzed streams never crash" `Quick
      fuzz_streams_never_crash;
    Alcotest.test_case "malformed text never crashes" `Quick
      malformed_text_never_crashes;
    Alcotest.test_case "persist resumes across drivers" `Quick
      persist_resumes_across_drivers;
    Alcotest.test_case "quarantine survives a driver handoff" `Quick
      quarantine_survives_handoff;
    Alcotest.test_case "rollback restores net" `Quick rollback_restores_net;
  ]
