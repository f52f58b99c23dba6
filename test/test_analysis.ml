(* Tests for the Analysis subsystem: every lint rule triggered by a
   hand-built pathological net, clean models linting clean, and the
   RD_CHECK checker (the happens-before race detector, batch scope,
   generation/touched bookkeeping). *)

open Bgp
module Net = Simulator.Net
module Pool = Simulator.Pool
module Qrmodel = Asmodel.Qrmodel
module Lint = Analysis.Lint
module Report = Analysis.Report
module Ownership = Analysis.Ownership
module Race = Analysis.Race
module Audit = Analysis.Audit
module Engine = Simulator.Engine
module Runtime = Simulator.Runtime

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let has = Report.has_rule

(* A fresh two-node net with one session, outside any model. *)
let two_nodes () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  ignore (Net.connect net a b);
  (net, a, b)

let triangle_model () =
  Qrmodel.initial (Topology.Asgraph.of_edges [ (1, 2); (2, 3); (1, 3) ])

let node_of net asn = List.hd (Net.nodes_of_as net asn)

let session net a b = Option.get (Net.find_session net a b)

(* -- report ---------------------------------------------------------- *)

let report_structure () =
  let f sev rule =
    { Report.severity = sev; rule; location = Report.Network;
      message = "m"; hint = "h" }
  in
  let r = Report.of_findings [ f Report.Warn "w1"; f Report.Error "e1" ] in
  check_int "errors" 1 (Report.error_count r);
  check_int "warnings" 1 (Report.warn_count r);
  check_bool "not clean" false (Report.is_clean r);
  check_bool "has e1" true (has r "e1");
  check_bool "no e2" false (has r "e2");
  (* Errors sort first regardless of insertion order. *)
  match Report.findings r with
  | first :: _ -> check_bool "error first" true (first.Report.severity = Report.Error)
  | [] -> Alcotest.fail "empty report"

(* -- structural lint -------------------------------------------------- *)

let clean_net () =
  let net, _, _ = two_nodes () in
  check_bool "clean" true (Lint.check_net net |> Report.is_clean);
  check_int "no findings" 0 (List.length (Report.findings (Lint.check_net net)))

let asymmetric_session () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect net a b);
  (* Dangling half toward [c], with no mirror at [c]. *)
  ignore (Net.Unsafe.push_half_session net a ~peer:c ());
  let r = Lint.check_net net in
  check_bool "asymmetric" true (has r "session-asymmetric");
  check_bool "not self" false (has r "session-self");
  check_bool "not duplicate" false (has r "session-duplicate");
  check_bool "errors" false (Report.is_clean r)

let broken_round_trip () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect net a b);
  ignore (Net.connect net a c);
  ignore (Net.connect net b c);
  (* Point a's half toward b at b's half toward c instead. *)
  Net.Unsafe.set_peer_session net a (session net a b) 1;
  let r = Lint.check_net net in
  check_bool "asymmetric" true (has r "session-asymmetric")

let self_session () =
  let net, a, _ = two_nodes () in
  let s = Net.Unsafe.push_half_session net a ~peer:a () in
  (* Mirror it onto itself so only the self rule fires. *)
  Net.Unsafe.set_peer_session net a s s;
  let r = Lint.check_net net in
  check_bool "self" true (has r "session-self");
  check_bool "not asymmetric" false (has r "session-asymmetric")

let duplicate_session () =
  let net, a, b = two_nodes () in
  ignore (Net.Unsafe.push_half_session net a ~peer:b ~peer_session:0 ());
  let r = Lint.check_net net in
  check_bool "duplicate" true (has r "session-duplicate")

let session_count_drift () =
  let net, _, _ = two_nodes () in
  Net.Unsafe.set_session_count net 5;
  let r = Lint.check_net net in
  check_bool "count" true (has r "session-count")

let membership_broken () =
  let net, a, _ = two_nodes () in
  Net.Unsafe.detach_from_as net a;
  let r = Lint.check_net net in
  check_bool "membership" true (has r "as-membership");
  check_bool "partition count" true (has r "as-membership-count")

let kind_mismatch () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 1) in
  let ia = Net.Unsafe.push_half_session net a ~peer:b ~kind:Net.Ebgp () in
  let ib = Net.Unsafe.push_half_session net b ~peer:a ~kind:Net.Ibgp () in
  Net.Unsafe.set_peer_session net a ia ib;
  Net.Unsafe.set_peer_session net b ib ia;
  let r = Lint.check_net net in
  check_bool "kind mismatch" true (has r "session-kind-mismatch");
  check_bool "symmetric otherwise" false (has r "session-asymmetric")

let class_mismatch () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let cust = Simulator.Relclass.customer in
  (* customer/customer is not a dual pairing. *)
  ignore (Net.connect net ~class_ab:cust ~class_ba:cust a b);
  let r = Lint.check_net net in
  check_bool "class mismatch" true (has r "session-class-mismatch");
  (* It is a Warn, not an Error. *)
  check_bool "still clean" true (Report.is_clean r)

(* -- policy lint ------------------------------------------------------ *)

let orphan_rules () =
  let m = triangle_model () in
  let net = m.Qrmodel.net in
  let n1 = node_of net 1 and n2 = node_of net 2 and n3 = node_of net 3 in
  let stray = Prefix.of_string_exn "99.0.0.0/8" in
  (* Different sessions, so the lpref/MED conflict rule stays quiet. *)
  Net.set_import_med net n1 (session net n1 n2) stray 0;
  Net.set_import_lpref_for net n1 (session net n1 n3) stray 200;
  Net.deny_export net n1 (session net n1 n2) stray;
  let r = Lint.check m in
  check_bool "orphan med" true (has r "orphan-med");
  check_bool "orphan lpref" true (has r "orphan-lpref");
  check_bool "orphan deny" true (has r "orphan-deny");
  (* Orphans are warnings: dead weight, not corruption. *)
  check_bool "clean of errors" true (Report.is_clean r)

let lpref_med_conflict () =
  let m = triangle_model () in
  let net = m.Qrmodel.net in
  let n1 = node_of net 1 and n2 = node_of net 2 in
  let s = session net n1 n2 in
  let p3 = Asn.origin_prefix 3 in
  Net.set_import_med net n1 s p3 0;
  Net.set_import_lpref_for net n1 s p3 200;
  let r = Lint.check m in
  check_bool "conflict" true (has r "lpref-med-conflict");
  check_bool "is an error" false (Report.is_clean r)

let shadowed_deny () =
  (* Two disconnected components: a deny in the far component can never
     see the near component's prefix. *)
  let m = Qrmodel.initial (Topology.Asgraph.of_edges [ (1, 2); (3, 4) ]) in
  let net = m.Qrmodel.net in
  let n3 = node_of net 3 and n4 = node_of net 4 in
  let p1 = Asn.origin_prefix 1 in
  Net.deny_export net n3 (session net n3 n4) p1;
  let r = Lint.check m in
  check_bool "shadowed" true (has r "shadowed-deny");
  check_bool "unreachable reported" true (has r "unreachable")

let redundant_deny () =
  let m = triangle_model () in
  let net = m.Qrmodel.net in
  let n1 = node_of net 1 and n2 = node_of net 2 in
  Net.set_export_matrix net (fun ~learned_class:_ ~to_class:_ -> false);
  Net.deny_export net n1 (session net n1 n2) (Asn.origin_prefix 3);
  let r = Lint.check m in
  check_bool "redundant" true (has r "redundant-deny")

let origin_missing () =
  let m = triangle_model () in
  let m =
    { m with Qrmodel.prefixes =
        (Prefix.of_string_exn "99.0.0.0/8", 99) :: m.Qrmodel.prefixes }
  in
  let r = Lint.check m in
  check_bool "origin missing" true (has r "origin-missing");
  check_bool "is an error" false (Report.is_clean r)

let dispute_wheel () =
  let m = triangle_model () in
  let net = m.Qrmodel.net in
  let p = Asn.origin_prefix 1 in
  let prefer a b =
    let na = node_of net a in
    Net.set_import_lpref_for net na (session net na (node_of net b)) p 200
  in
  (* 1 prefers via 2, 2 via 3, 3 via 1: the Bad-Gadget shape. *)
  prefer 1 2;
  prefer 2 3;
  prefer 3 1;
  let r = Lint.check m in
  check_bool "dispute wheel" true (has r "dispute-wheel");
  (* Breaking the cycle clears the finding. *)
  let n3 = node_of net 3 in
  Net.clear_import_lpref_for net n3 (session net n3 (node_of net 1)) p;
  check_bool "acyclic clean" false (has (Lint.check m) "dispute-wheel")

let clean_model () =
  let r = Lint.check (triangle_model ()) in
  check_int "no findings at all" 0 (List.length (Report.findings r))

(* -- RD_CHECK ---------------------------------------------------------- *)

(* Run [f] under [RD_CHECK=on] with both checkers empty, restoring the
   prior mode and clearing them afterwards. *)
let with_checker f =
  let prior = Ownership.current () in
  Ownership.reset ();
  Ownership.set Runtime.Check_mode.On;
  Fun.protect
    ~finally:(fun () ->
      Ownership.set prior;
      Ownership.reset ())
    f

let batch_marker () =
  check_bool "idle" false (Pool.batch_active ());
  let inside = Pool.map ~jobs:1 (fun _ -> Pool.batch_active ()) [ () ] in
  check_bool "inside batch" true (List.for_all Fun.id inside);
  check_bool "idle again" false (Pool.batch_active ())

let touched_bookkeeping () =
  let net, a, b = two_nodes () in
  let p = Asn.origin_prefix 2 in
  Ownership.reset ();
  (* A policy event naming a node the touched set never saw. *)
  Ownership.record net (Net.Policy { rule = "test"; prefix = p; node = 99 });
  check_int "unrecorded node flagged" 1 (Ownership.violation_count ());
  (* A real mutator records its node, so auditing it is silent. *)
  Net.deny_export net a (session net a b) p;
  Ownership.record net (Net.Policy { rule = "test"; prefix = p; node = a });
  check_int "recorded node passes" 1 (Ownership.violation_count ());
  Ownership.reset ()

let generation_bookkeeping () =
  let net, _, _ = two_nodes () in
  Ownership.reset ();
  let g = Net.generation net in
  Ownership.record net (Net.Structural { rule = "test"; generation = g });
  check_int "first event passes" 0 (Ownership.violation_count ());
  (* Same generation again: the mutator forgot to bump. *)
  Ownership.record net (Net.Structural { rule = "test"; generation = g });
  check_int "stale generation flagged" 1 (Ownership.violation_count ());
  Ownership.reset ()

let cross_domain_mutation () =
  with_checker (fun () ->
      let net, a, b = two_nodes () in
      let p = Asn.origin_prefix 2 in
      let s = session net a b in
      (* Benign mutation from the building domain: no finding. *)
      Net.set_import_med net a s p 50;
      check_int "benign mutation clean" 0 (Ownership.count ());
      (* Injected fault 1: mutation from inside a pool batch. *)
      ignore (Pool.map ~jobs:1 (fun v -> Net.set_import_med net a s p v) [ 1 ]);
      check_bool "batch mutation caught" true (Ownership.violation_count () > 0);
      check_bool "flagged as in-batch" true
        (List.exists (fun v -> v.Ownership.in_batch) (Ownership.violations ()));
      (* Injected fault 2: mutation from a foreign domain with no
         published edge — a race with the building domain's writes. *)
      check_int "batch mutation raced nothing" 0 (Race.race_count ());
      let d = Domain.spawn (fun () -> Net.set_import_med net a s p 9) in
      Domain.join d;
      check_bool "cross-domain caught" true (Race.race_count () > 0))

(* Run the Figure-5 refinement on the 5-AS diamond, check that it
   converged and return the model it grew. *)
let refine_fig5 () =
  let graph =
    Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]
  in
  let entry o origin path_list =
    {
      Rib.op = { Rib.op_ip = Asn.router_ip o 0; op_as = o };
      prefix = Asn.origin_prefix origin;
      path = Aspath.of_list path_list;
    }
  in
  let training =
    Rib.of_entries
      [ entry 1 3 [ 1; 2; 3 ]; entry 1 4 [ 1; 4 ]; entry 1 4 [ 1; 5; 4 ] ]
  in
  let m = Qrmodel.initial graph in
  let r = Refine.Refiner.refine m ~training in
  check_bool "converged" true r.Refine.Refiner.converged;
  m

let refine_clean_under_check () =
  with_checker (fun () ->
      let m = refine_fig5 () in
      (* The phased refiner keeps all mutation sequential and between
         batches: the checker must stay silent... *)
      check_int "no violations" 0 (Ownership.violation_count ());
      (* ...and the model it grew must lint clean, warnings included. *)
      let report = Lint.check m in
      check_int "no findings" 0 (List.length (Report.findings report)))

(* -- the race detector ------------------------------------------------- *)

(* The same refinement seen by the race detector: its pool batches and
   the sequential mutations between them are ordered, so nothing fires. *)
let refine_clean_under_race () =
  with_checker (fun () ->
      ignore (refine_fig5 ());
      check_int "no races" 0 (Race.race_count ());
      check_int "no violations" 0 (Ownership.violation_count ()))

(* Raw Domain.spawn/join with the ordering edges published to the
   probe, mirroring what Pool does — so a test can run code in another
   domain without manufacturing a false race. *)
let sync_uid = ref 0

let spawn_ordered f =
  incr sync_uid;
  let chan = Printf.sprintf "test.sync.%d" !sync_uid in
  Obs.Probe.release ~chan:(chan ^ ".spawn");
  let d =
    Domain.spawn (fun () ->
        Obs.Probe.acquire ~chan:(chan ^ ".spawn");
        let r = f () in
        Obs.Probe.release ~chan:(chan ^ ".join");
        r)
  in
  (d, chan)

let join_ordered (d, chan) =
  let r = Domain.join d in
  Obs.Probe.acquire ~chan:(chan ^ ".join");
  r

(* The seeded-race negative control: a mutation from a foreign domain
   with no sync edge must fire the detector under [on]. *)
let seeded_race_detected () =
  with_checker (fun () ->
      let net, a, b = two_nodes () in
      let p = Asn.origin_prefix 2 in
      let s = session net a b in
      Net.deny_export net a s p;
      check_int "no race from the owning domain" 0 (Race.race_count ());
      Net.Unsafe.from_foreign_domain net (fun net ->
          Net.set_import_med net a s p 7);
      check_bool "foreign mutation detected" true (Race.race_count () > 0);
      (match Race.races () with
      | [] -> Alcotest.fail "no race recorded"
      | r :: _ ->
          check_bool "write conflict" true
            (r.Race.conflict = "write-write" || r.Race.conflict = "read-write");
          check_bool "two domains involved" true
            (r.Race.prior.Race.domain <> r.Race.current.Race.domain));
      check_int "findings mirror races" (Race.race_count ())
        (List.length (Race.findings ()));
      check_int "one count covers both checkers" (Ownership.count ())
        (List.length (Ownership.findings ())))

(* Pool-ordered cross-domain work is exactly what the published edges
   legitimize: a parallel simulation batch must be silent. *)
let pool_clean_under_race () =
  with_checker (fun () ->
      let m = triangle_model () in
      let net = m.Qrmodel.net in
      let prefixes = List.map fst m.Qrmodel.prefixes in
      let states, _ =
        Pool.simulate_result ~jobs:4
          ~sim:(fun p ->
            Engine.simulate net ~prefix:p
              ~originators:(Qrmodel.originators m p))
          ~run:(fun st -> (Engine.outcome st, Engine.events st))
          prefixes
      in
      check_int "batch raced nothing" 0 (Race.race_count ());
      check_int "all prefixes simulated" (List.length prefixes)
        (List.length states);
      check_bool "every simulation returned" true
        (List.for_all (function _, Ok _ -> true | _, Error _ -> false) states);
      (* A second batch reuses worker slots: the join edges must carry
         the first batch's history forward. *)
      let _ =
        Pool.simulate_result ~jobs:4
          ~sim:(fun p ->
            Engine.simulate net ~prefix:p
              ~originators:(Qrmodel.originators m p))
          ~run:(fun st -> (Engine.outcome st, Engine.events st))
          prefixes
      in
      check_int "second batch clean too" 0 (Race.race_count ()))

(* Satellite: two domains racing the same-generation CSR rebuild must
   publish equivalent structures and zero findings (the one declared
   benign publish race). *)
let concurrent_csr_rebuild () =
  with_checker (fun () ->
      let net, _, _ = two_nodes () in
      let gate = Atomic.make 0 in
      let worker () =
        Atomic.incr gate;
        while Atomic.get gate < 2 do
          Domain.cpu_relax ()
        done;
        Net.csr net
      in
      let h1 = spawn_ordered worker in
      let h2 = spawn_ordered worker in
      let c1 = join_ordered h1 in
      let c2 = join_ordered h2 in
      check_bool "same generation" true
        (Net.Csr.generation c1 = Net.Csr.generation c2);
      check_bool "bit-identical structures" true
        (c1 == c2
        || (Net.Csr.off c1 = Net.Csr.off c2
           && Net.Csr.peer c1 = Net.Csr.peer c2
           && Net.Csr.rev c1 = Net.Csr.rev c2
           && Net.Csr.reverse_local c1 = Net.Csr.reverse_local c2
           && Net.Csr.kinds c1 = Net.Csr.kinds c2
           && Net.Csr.classes c1 = Net.Csr.classes c2
           && Net.Csr.lprefs c1 = Net.Csr.lprefs c2
           && Net.Csr.carries c1 = Net.Csr.carries c2
           && Net.Csr.rr_clients c1 = Net.Csr.rr_clients c2
           && Net.Csr.asns c1 = Net.Csr.asns c2
           && Net.Csr.ips c1 = Net.Csr.ips c2));
      check_int "zero race findings" 0 (Race.race_count ());
      (* the winner is now cached for everyone *)
      let c3 = Net.csr net in
      check_bool "one structure published" true (c3 == c1 || c3 == c2))

(* The allowlist suppresses declared objects and nothing else. *)
let allowlist_benign () =
  with_checker (fun () ->
      let hit obj site =
        let d = Domain.spawn (fun () -> Obs.Probe.write ~obj ~site) in
        Domain.join d
      in
      hit "test#0/csr" "w1";
      hit "test#0/csr" "w2";
      check_int "declared object suppressed" 0 (Race.race_count ());
      check_bool "suppression counted" true (Race.benign_count () >= 1);
      hit "test#0/slab" "w3";
      hit "test#0/slab" "w4";
      check_bool "undeclared object reported" true (Race.race_count () >= 1))

(* -- structural audit -------------------------------------------------- *)

let audit_clean () =
  let m = triangle_model () in
  let net = m.Qrmodel.net in
  check_int "csr audit clean" 0 (List.length (Audit.csr net));
  List.iter
    (fun (p, _) ->
      let st = Qrmodel.simulate m p in
      check_bool "converged" true (Engine.converged st);
      check_int "state audit clean" 0 (List.length (Audit.state net st)))
    m.Qrmodel.prefixes;
  (* The runs above filled the net's memo, so the cap audit reads it. *)
  check_bool "the net's memo is filled" true
    (Simulator.Intern.(size (tables (Net.intern_scope net))) > 0);
  check_int "intern audit clean" 0 (List.length (Audit.intern_integrity net))

let audit_catches_corruption () =
  let net, a, b = two_nodes () in
  ignore (Net.csr net);
  (* Corrupt the live record under the cached index: the cross-check
     must notice the disagreement without a generation bump. *)
  Net.Unsafe.set_peer_session net a (session net a b) 7;
  let fs = Audit.csr net in
  check_bool "corruption surfaces" true
    (List.exists
       (fun f ->
         f.Report.rule = "audit-csr-slot" || f.Report.rule = "audit-csr-rev")
       fs);
  (* A caller writing into the per-generation tables the index shares:
     one export decision flipped, one iBGP slot's IGP cost changed. *)
  let net, a, _b = two_nodes () in
  let c = Net.csr net in
  check_int "fresh tables audit clean" 0 (List.length (Audit.csr net));
  let table = Net.Csr.export_table c in
  table.(0) <- not table.(0);
  check_bool "flipped export entry surfaces" true
    (List.exists (fun f -> f.Report.rule = "audit-csr-export") (Audit.csr net));
  table.(0) <- not table.(0);
  let a2 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 1) in
  let sa, _ = Net.connect ~kind:Net.Ibgp net a a2 in
  Net.set_igp_cost net (fun _ _ -> 3);
  let c = Net.csr net in
  let k = (Net.Csr.off c).(a) + sa in
  check_int "iBGP slot carries the IGP cost" 3 (Net.Csr.igp_costs c).(k);
  (Net.Csr.igp_costs c).(k) <- 4;
  check_bool "changed IGP cost surfaces" true
    (List.exists
       (fun f ->
         f.Report.rule = "audit-csr-slot"
         && f.Report.location = Report.Session (a, sa))
       (Audit.csr net))

let audit_stale_state () =
  let m = triangle_model () in
  let net = m.Qrmodel.net in
  let p = fst (List.hd m.Qrmodel.prefixes) in
  let st = Qrmodel.simulate m p in
  (* A structural mutation invalidates the state: the audit must warn
     and stand down rather than compare stale offsets. *)
  let x = Net.add_node net ~asn:99 ~ip:(Asn.router_ip 99 0) in
  ignore x;
  let fs = Audit.state net st in
  check_bool "stale state warned" true
    (List.exists (fun f -> f.Report.rule = "audit-stale-state") fs);
  check_bool "only the warning" true
    (List.for_all (fun f -> f.Report.severity = Report.Warn) fs)

(* -- sentinel source lint ---------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let sentinel_lint_seeded () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sentinel_lint_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_file (Filename.concat dir "bad.ml")
    "let bad r = r = Rattr.no_route\n\
     let also_bad r = Rattr.no_route <> r\n\
     let fine r = r == Rattr.no_route\n\
     let fine2 r = r != no_route\n\
     (* comment: no_route = masked *)\n\
     let s = \"no_route = masked too\"\n\
     let no_route = 3\n\
     let bad_slot x = x = Rattr.no_import\n\
     let fine_slot x = x != Rattr.no_import\n";
  let fs = Sentinel_lint.sentinel_lint ~root:dir () in
  check_int "every structural compare flagged" 3 (List.length fs);
  List.iter
    (fun f -> check_bool "rule" true (f.Report.rule = "sentinel-compare"))
    fs;
  Sys.remove (Filename.concat dir "bad.ml");
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ())

let sentinel_lint_real_sources () =
  (* The simulator sources themselves must be clean; when the walk-up
     cannot find them (a test binary run outside the tree) the lint
     returns []. *)
  check_int "lib/simulator clean" 0
    (List.length (Sentinel_lint.sentinel_lint ()))

let suite =
  [
    Alcotest.test_case "report structure" `Quick report_structure;
    Alcotest.test_case "clean net" `Quick clean_net;
    Alcotest.test_case "asymmetric session" `Quick asymmetric_session;
    Alcotest.test_case "broken round trip" `Quick broken_round_trip;
    Alcotest.test_case "self session" `Quick self_session;
    Alcotest.test_case "duplicate session" `Quick duplicate_session;
    Alcotest.test_case "session count drift" `Quick session_count_drift;
    Alcotest.test_case "membership broken" `Quick membership_broken;
    Alcotest.test_case "kind mismatch" `Quick kind_mismatch;
    Alcotest.test_case "class mismatch" `Quick class_mismatch;
    Alcotest.test_case "orphan rules" `Quick orphan_rules;
    Alcotest.test_case "lpref med conflict" `Quick lpref_med_conflict;
    Alcotest.test_case "shadowed deny" `Quick shadowed_deny;
    Alcotest.test_case "redundant deny" `Quick redundant_deny;
    Alcotest.test_case "origin missing" `Quick origin_missing;
    Alcotest.test_case "dispute wheel" `Quick dispute_wheel;
    Alcotest.test_case "clean model" `Quick clean_model;
    Alcotest.test_case "batch marker" `Quick batch_marker;
    Alcotest.test_case "touched bookkeeping" `Quick touched_bookkeeping;
    Alcotest.test_case "generation bookkeeping" `Quick generation_bookkeeping;
    Alcotest.test_case "cross domain mutation" `Quick cross_domain_mutation;
    Alcotest.test_case "refine clean under check" `Quick refine_clean_under_check;
    Alcotest.test_case "seeded race detected" `Quick seeded_race_detected;
    Alcotest.test_case "refine clean under race" `Quick refine_clean_under_race;
    Alcotest.test_case "pool clean under race" `Quick pool_clean_under_race;
    Alcotest.test_case "concurrent csr rebuild" `Quick concurrent_csr_rebuild;
    Alcotest.test_case "allowlist benign" `Quick allowlist_benign;
    Alcotest.test_case "audit clean" `Quick audit_clean;
    Alcotest.test_case "audit catches corruption" `Quick audit_catches_corruption;
    Alcotest.test_case "audit stale state" `Quick audit_stale_state;
    Alcotest.test_case "sentinel lint seeded" `Quick sentinel_lint_seeded;
    Alcotest.test_case "sentinel lint real sources" `Quick sentinel_lint_real_sources;
  ]
