(* Tests for warm-start re-simulation: Net change tracking,
   Engine.simulate ?from equivalence with cold runs (hand-built and
   randomized), AS-path interning, and the refiner under each RD_WARM
   mode. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Intern = Simulator.Intern
module Warm = Simulator.Warm
module Runtime = Simulator.Runtime
module Qrmodel = Asmodel.Qrmodel
module Refiner = Refine.Refiner

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let p = Asn.origin_prefix 4

(* -- Net change tracking -- *)

let line () =
  (* 1 -- 2 -- 3 *)
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let sab, _sba = Net.connect net a b in
  let sbc, _scb = Net.connect net b c in
  (net, a, b, c, sab, sbc)

let touched_tracking () =
  let net, a, b, _c, sab, sbc = line () in
  check_bool "initially empty" true (Net.touched_nodes net p = []);
  (* Import-side edits record the sending peer, not the receiver. *)
  Net.set_import_med net a sab p 0;
  check_bool "med import touches sender" true (Net.touched_nodes net p = [ b ]);
  Net.clear_import_med net a sab p;
  Net.set_import_lpref_for net a sab p 200;
  Net.clear_import_lpref_for net a sab p;
  check_bool "still just the sender (dedup)" true
    (Net.touched_nodes net p = [ b ]);
  (* Export-side edits record the exporting node itself. *)
  Net.deny_export net b sbc p;
  check_bool "deny touches exporter, sorted" true
    (Net.touched_nodes net p = [ a; b ] || Net.touched_nodes net p = [ b ]);
  check_bool "sorted ascending" true
    (let l = Net.touched_nodes net p in
     List.sort compare l = l);
  Net.allow_export net b sbc p;
  (* Other prefixes are untouched. *)
  check_bool "per-prefix isolation" true
    (Net.touched_nodes net (Asn.origin_prefix 9) = []);
  Net.clear_touched net p;
  check_bool "cleared" true (Net.touched_nodes net p = [])

let generation_tracking () =
  let net, a, _b, c, sab, _ = line () in
  let g0 = Net.generation net in
  (* Per-prefix policy edits leave the generation alone. *)
  Net.set_import_med net a sab p 0;
  Net.deny_export net a sab p;
  check_int "policy edits keep generation" g0 (Net.generation net);
  (* Structural and network-wide edits bump it. *)
  let d = Net.add_node net ~asn:9 ~ip:(Asn.router_ip 9 0) in
  check_bool "add_node bumps" true (Net.generation net > g0);
  let g1 = Net.generation net in
  ignore (Net.connect net c d);
  check_bool "connect bumps" true (Net.generation net > g1);
  let g2 = Net.generation net in
  Net.set_default_med net 50;
  Net.set_decision_steps net (Net.decision_steps net);
  Net.set_import_lpref net a sab 120;
  check_bool "global knobs bump" true (Net.generation net > g2);
  let g3 = Net.generation net in
  check_int "the append base follows other bumps" g3 (Net.append_base net);
  ignore (Net.duplicate_node net a);
  check_bool "duplicate_node bumps" true (Net.generation net > g3);
  check_int "duplicate_node keeps the append base" g3 (Net.append_base net)

(* -- warm-resume equivalence on a hand-built scenario -- *)

(* Figure 5-style diamond: AS 1 reaches AS 4 directly and via AS 5. *)
let diamond_graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

let check_equivalent label cold warm =
  check_bool (label ^ ": same outcome") true
    (Engine.converged cold = Engine.converged warm);
  check_bool (label ^ ": same state") true (Engine.same_state cold warm);
  check_int
    (label ^ ": same fingerprint")
    (Engine.state_fingerprint cold)
    (Engine.state_fingerprint warm)

let resume_after_policy_change () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  check_bool "cold converged" true (Engine.converged prev);
  Net.clear_touched net p;
  (* Make AS 1 prefer the longer route via 5: MED 0 on the session from
     5, and filter the direct announcement 4 -> 1. *)
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let s15 =
    match Net.find_session net n1 (List.hd (Net.nodes_of_as net 5)) with
    | Some s -> s
    | None -> Alcotest.fail "no session 1-5"
  in
  let s41 =
    match Net.find_session net n4 n1 with
    | Some s -> s
    | None -> Alcotest.fail "no session 4-1"
  in
  Net.set_import_med net n1 s15 p 0;
  Net.deny_export net n4 s41 p;
  check_bool "still resumable" true (Engine.resumable net prev);
  let touched = Net.touched_nodes net p in
  check_bool "touched nonempty" true (touched <> []);
  let warm =
    Engine.simulate ~from:prev ~touched net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  let cold = Qrmodel.simulate m p in
  check_equivalent "policy change" cold warm;
  (* The new fixed point actually changed: AS 1 now selects 1-5-4. *)
  check_bool "longer path selected" true
    (List.mem [| 1; 5; 4 |] (Engine.selected_paths net warm 1))

let resume_after_filter_removal () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let s41 =
    match Net.find_session net n4 n1 with
    | Some s -> s
    | None -> Alcotest.fail "no session 4-1"
  in
  Net.deny_export net n4 s41 p;
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  Net.allow_export net n4 s41 p;
  let warm =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  let cold = Qrmodel.simulate m p in
  check_equivalent "filter removal" cold warm;
  check_bool "direct path back" true
    (List.mem [| 1; 4 |] (Engine.selected_paths net warm 1))

let resume_noop_is_free () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  let originators = Qrmodel.originators m p in
  let warm = Engine.simulate ~from:prev ~touched:[] net ~prefix:p ~originators in
  check_int "no events" 0 (Engine.events warm);
  check_equivalent "no-op" prev warm;
  (* A replayed node whose advertisements are unchanged costs exactly
     its replay event and disturbs nothing. *)
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let warm2 =
    Engine.simulate ~from:prev ~touched:[ n4 ] net ~prefix:p ~originators
  in
  check_int "one replay event" 1 (Engine.events warm2);
  check_equivalent "unchanged replay" prev warm2

let warm_locality () =
  (* A 30-AS chain: a policy tweak at the far end disturbs only its
     neighbourhood, so the warm drain executes a handful of events
     while a cold run re-floods the whole chain. *)
  let graph = Topology.Asgraph.of_edges (List.init 29 (fun i -> (i + 1, i + 2))) in
  let m = Qrmodel.initial graph in
  let net = m.Qrmodel.net in
  let prefix = Asn.origin_prefix 1 in
  let prev = Qrmodel.simulate m prefix in
  Net.clear_touched net prefix;
  let n30 = List.hd (Net.nodes_of_as net 30) in
  let s = fst (List.hd (Net.sessions_of net n30)) in
  Net.set_import_med net n30 s prefix 0;
  let warm =
    Engine.simulate ~from:prev net ~prefix
      ~originators:(Qrmodel.originators m prefix)
  in
  let cold = Qrmodel.simulate m prefix in
  check_equivalent "chain" cold warm;
  check_bool "warm executes far fewer events" true
    (Engine.events warm * 5 < Engine.events cold)

(* A diamond model with a converged, drained state of [p]. *)
let diamond_state () =
  let m = Qrmodel.initial diamond_graph in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched m.Qrmodel.net p;
  (m, m.Qrmodel.net, prev)

let node_of net asn = List.hd (Net.nodes_of_as net asn)

(* Every structural or network-wide edit but a duplication.  AS 2 and
   AS 5 share no session in the diamond. *)
let non_append_edits =
  [
    ("connect", fun net -> ignore (Net.connect net (node_of net 2) (node_of net 5)));
    ("add_node", fun net -> ignore (Net.add_node net ~asn:9 ~ip:(Asn.router_ip 9 0)));
    ("set_import_lpref", fun net -> Net.set_import_lpref net (node_of net 1) 0 120);
    ("set_default_med", fun net -> Net.set_default_med net 50);
    ( "set_decision_steps",
      fun net -> Net.set_decision_steps net (Net.decision_steps net) );
    ("set_med_scope", fun net -> Net.set_med_scope net (Net.med_scope net));
    ("set_igp_cost", fun net -> Net.set_igp_cost net (fun _ _ -> 1));
    ( "set_export_matrix",
      fun net -> Net.set_export_matrix net (fun ~learned_class:_ ~to_class:_ -> true) );
    ("set_rr_client", fun net -> Net.set_rr_client net (node_of net 1) 0 false);
    ("set_carry_lpref", fun net -> Net.set_carry_lpref net (node_of net 1) 0 false);
    ("Unsafe", fun net -> Net.Unsafe.set_session_count net (Net.session_count net));
  ]

let resumable_guards () =
  let m, net, prev = diamond_state () in
  check_bool "fresh state is resumable" true (Engine.resumable net prev);
  (* A truncated state is not. *)
  let truncated = Qrmodel.simulate ~max_events:1 m p in
  check_bool "truncated not resumable" false (Engine.resumable net truncated);
  (* A duplication only appends: the state stays resumable, twice over,
     and the resume lands on the cold fixed point. *)
  ignore (Net.duplicate_node net (node_of net 1));
  ignore (Net.duplicate_node net (node_of net 4));
  check_bool "resumable across duplications" true (Engine.resumable net prev);
  let hits0 = Obs.Metrics.find_counter "engine.warm_resume_hits" in
  let warm =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  check_int "resume counted" (hits0 + 1)
    (Obs.Metrics.find_counter "engine.warm_resume_hits");
  check_equivalent "across duplications" (Qrmodel.simulate m p) warm;
  (* Every other structural or network-wide edit forces a cold run,
     before or after a duplication. *)
  List.iter
    (fun (label, edit) ->
      List.iter
        (fun dup_first ->
          let _, net, prev = diamond_state () in
          let dup () = ignore (Net.duplicate_node net (node_of net 1)) in
          if dup_first then dup ();
          edit net;
          if not dup_first then dup ();
          check_bool
            (Printf.sprintf "%s%s: not resumable" label
               (if dup_first then " after a duplication" else ""))
            false (Engine.resumable net prev))
        [ false; true ])
    non_append_edits;
  (* simulate ?from falls back to a cold start silently and counts the
     miss — callers pass their cache slot unconditionally. *)
  let m, net, prev = diamond_state () in
  ignore (Net.connect net (node_of net 2) (node_of net 5));
  let misses0 = Obs.Metrics.find_counter "engine.warm_resume_misses" in
  let st =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  check_bool "cold fallback converged" true (Engine.converged st);
  check_int "miss counted" (misses0 + 1)
    (Obs.Metrics.find_counter "engine.warm_resume_misses");
  let cold = Qrmodel.simulate m p in
  check_equivalent "fallback equals cold" cold st

(* -- AS-path interning -- *)

let interning () =
  let t = Intern.tables (Intern.scope ()) in
  let a = [| 3; 2; 1 |] and b = [| 3; 2; 1 |] in
  let pr = Intern.prepend t ~own_as:7 a in
  check_bool "content preserved" true (a = [| 3; 2; 1 |]);
  check_bool "prepend content" true (pr = [| 7; 3; 2; 1 |]);
  check_bool "prepend memoized" true (pr == Intern.prepend t ~own_as:7 b);
  check_int "hash agrees with fresh array"
    (Intern.path_hash a)
    (Intern.path_hash [| 3; 2; 1 |]);
  check_bool "hash separates lengths" true
    (Intern.path_hash [| 1 |] <> Intern.path_hash [| 1; 1 |]);
  (* Past [table_cap] distinct prepends the memo is reset, not grown;
     it still prepends correctly and memoizes again. *)
  for i = 0 to Intern.table_cap do
    ignore (Intern.prepend t ~own_as:7 [| i |])
  done;
  check_bool "memo stays within its cap" true
    (Intern.size t <= Intern.table_cap);
  let q = Intern.prepend t ~own_as:8 a in
  check_bool "prepend content past the cap" true (q = [| 8; 3; 2; 1 |]);
  check_bool "memoized past the cap" true (q == Intern.prepend t ~own_as:8 b)

(* -- randomized warm/cold equivalence -- *)

(* Random connected graph plus a script of per-prefix policy edits;
   warm resumption after the edits must land on the cold fixed point. *)
let gen_scenario =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* tree_choices = list_repeat (n - 1) (int_bound 1_000_000) in
    let* extra = int_range 0 n in
    let* extra_pairs =
      list_repeat extra (pair (int_bound 1_000_000) (int_bound 1_000_000))
    in
    let* edits = list_size (int_range 1 6) (int_bound 1_000_000) in
    let edges =
      List.mapi (fun i r -> (2 + i, 1 + (r mod (i + 1)))) tree_choices
      @ List.map (fun (a, b) -> (1 + (a mod n), 1 + (b mod n))) extra_pairs
    in
    return (Topology.Asgraph.of_edges edges, edits))

let arb_scenario =
  QCheck.make
    ~print:(fun (g, edits) ->
      Printf.sprintf "edges=%s edits=%s"
        (String.concat ","
           (List.map
              (fun (a, b) -> Printf.sprintf "%d-%d" a b)
              (Topology.Asgraph.edges g)))
        (String.concat "," (List.map string_of_int edits)))
    gen_scenario

(* A per-prefix edit on one of node [n]'s sessions, chosen by [r]. *)
let edit_node net prefix n r =
  let nsess = Net.session_count_of net n in
  if nsess = 0 then ()
  else
    let s = r / 7 mod nsess in
    match r / 3 mod 4 with
    | 0 -> Net.set_import_med net n s prefix 0
    | 1 -> Net.deny_export net n s prefix
    | 2 -> Net.allow_export net n s prefix
    | _ -> Net.clear_import_med net n s prefix

let apply_random_edit net prefix r =
  edit_node net prefix (r mod Net.node_count net) r

(* Every third AS gets a second quasi-router preferring its last eBGP
   neighbour, so an AS can select two paths at once.  The preference is
   the refiner's own: import MED 0 for [prefix].  A per-session
   LOCAL_PREF would break the total route order, and with it the unique
   fixed point this property relies on: with LOCAL_PREF 200 instead,
   edges 1-2,1-3,1-5,1-8,3-4,3-6,3-7,4-5,4-6,4-7,5-6,6-7 and edits
   343935,880013 leave the duplicates of AS 4 and AS 7 each preferring
   the other's route, and warm and cold settle in two different stable
   states. *)
let duplicate_some m prefix =
  let net = m.Qrmodel.net in
  List.iteri
    (fun i asn ->
      if i mod 3 = 0 then begin
        let d = Net.duplicate_node net (List.hd (Net.nodes_of_as net asn)) in
        match
          List.rev
            (List.filter
               (fun (s, _) -> Net.session_kind net d s = Net.Ebgp)
               (Net.sessions_of net d))
        with
        | (s, _) :: _ -> Net.set_import_med net d s prefix 0
        | [] -> ()
      end)
    (Topology.Asgraph.nodes m.Qrmodel.graph)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm resume reaches the cold fixed point" ~count:100
    arb_scenario
    (fun (graph, edits) ->
      List.for_all
        (fun duplicated ->
          let m = Qrmodel.initial graph in
          let net = m.Qrmodel.net in
          let prefix = fst (List.hd m.Qrmodel.prefixes) in
          if duplicated then duplicate_some m prefix;
          let prev = Qrmodel.simulate m prefix in
          Net.clear_touched net prefix;
          List.iter (apply_random_edit net prefix) edits;
          let warm =
            Engine.simulate ~from:prev net ~prefix
              ~originators:(Qrmodel.originators m prefix)
          in
          let cold = Qrmodel.simulate m prefix in
          Engine.converged cold && Engine.converged warm
          && Engine.same_state cold warm
          && Engine.state_fingerprint cold = Engine.state_fingerprint warm
          && List.for_all
               (fun node ->
                 Simulator.Rattr.same_advertisement (Engine.best cold node)
                   (Engine.best warm node))
               (List.init (Net.node_count net) Fun.id))
        [ false; true ])

(* The AS graphs of every generator family at [Conf.tiny], a few seeds
   each, built once. *)
let family_graphs =
  let families =
    Netgen.Family.
      [
        Paper;
        Waxman default_waxman;
        Glp default_glp;
        Fattree default_fattree;
      ]
  in
  lazy
    (Array.of_list
       (List.concat_map
          (fun f ->
            List.map
              (fun seed ->
                ( Printf.sprintf "%s/%d" (Netgen.Family.name f) seed,
                  Netgen.Gentopo.as_graph
                    (Netgen.generate f Netgen.Conf.tiny
                       (Random.State.make [| seed |])) ))
              [ 1; 2; 3 ])
          families))

(* A state resumed across one to three duplications, each followed by
   a per-prefix edit (on the duplicate or anywhere), reaches the cold
   fixed point.  Each step is (node to duplicate, edit, edit at the
   duplicate?). *)
let prop_warm_across_duplications =
  let gen =
    QCheck.Gen.(
      let* world = int_bound 1_000 in
      let* prefix = int_bound 1_000 in
      let* steps =
        list_size (int_range 1 3)
          (triple (int_bound 1_000_000) (int_bound 1_000_000) bool)
      in
      return (world, prefix, steps))
  in
  let print (world, prefix, steps) =
    let graphs = Lazy.force family_graphs in
    Printf.sprintf "world=%s prefix=%d steps=%s"
      (fst graphs.(world mod Array.length graphs))
      prefix
      (String.concat ","
         (List.map (fun (d, e, at) -> Printf.sprintf "%d/%d/%b" d e at) steps))
  in
  QCheck.Test.make ~name:"warm resume across duplications = cold, every family"
    ~count:60 (QCheck.make ~print gen)
    (fun (world, pick, steps) ->
      let graphs = Lazy.force family_graphs in
      let m = Qrmodel.initial (snd graphs.(world mod Array.length graphs)) in
      let net = m.Qrmodel.net in
      let prefix = fst (List.nth m.Qrmodel.prefixes (pick mod List.length m.Qrmodel.prefixes)) in
      let prev = Qrmodel.simulate m prefix in
      Net.clear_touched net prefix;
      List.iter
        (fun (d, e, at_dup) ->
          let dup = Net.duplicate_node net (d mod Net.node_count net) in
          if at_dup then edit_node net prefix dup e
          else apply_random_edit net prefix e)
        steps;
      let warm =
        Engine.simulate ~from:prev net ~prefix
          ~originators:(Qrmodel.originators m prefix)
      in
      let cold = Qrmodel.simulate m prefix in
      Engine.converged prev
      && Engine.resumable net prev
      && Engine.converged warm
      && Engine.same_state cold warm)

(* A chain of two to four resumes at one generation, each from the
   state the previous one returned and after a per-prefix edit: every
   link is the cold fixed point, and a child's run leaves its parent's
   routes as they were.  Each step is (node to edit, edit). *)
let prop_patched_chain =
  let gen =
    QCheck.Gen.(
      let* world = int_bound 1_000 in
      let* prefix = int_bound 1_000 in
      let* steps =
        list_size (int_range 2 4)
          (pair (int_bound 1_000_000) (int_bound 1_000_000))
      in
      return (world, prefix, steps))
  in
  let print (world, prefix, steps) =
    let graphs = Lazy.force family_graphs in
    Printf.sprintf "world=%s prefix=%d steps=%s"
      (fst graphs.(world mod Array.length graphs))
      prefix
      (String.concat ","
         (List.map (fun (n, e) -> Printf.sprintf "%d/%d" n e) steps))
  in
  QCheck.Test.make ~name:"chained resumes = cold, parents unchanged, every family"
    ~count:60 (QCheck.make ~print gen)
    (fun (world, pick, steps) ->
      let graphs = Lazy.force family_graphs in
      let m = Qrmodel.initial (snd graphs.(world mod Array.length graphs)) in
      let net = m.Qrmodel.net in
      let prefix =
        fst (List.nth m.Qrmodel.prefixes (pick mod List.length m.Qrmodel.prefixes))
      in
      let originators = Qrmodel.originators m prefix in
      let root = Qrmodel.simulate m prefix in
      Net.clear_touched net prefix;
      let rec go parent = function
        | [] -> true
        | (node, e) :: rest ->
            let fp = Engine.state_fingerprint parent in
            edit_node net prefix (node mod Net.node_count net) e;
            let child = Engine.simulate ~from:parent net ~prefix ~originators in
            Net.clear_touched net prefix;
            let cold = Qrmodel.simulate m prefix in
            Engine.generation parent = Net.generation net
            && Engine.converged child
            && Engine.same_state cold child
            && Engine.state_fingerprint cold = Engine.state_fingerprint child
            && Engine.state_fingerprint parent = fp
            && go child rest
      in
      go root steps)

(* -- what a resume costs -- *)

(* Run [f] with one worker, no faults, no tracing and no checker, so
   that nothing but the engine allocates and every budget is the
   default one. *)
let quiet f =
  let prior = Runtime.current () in
  Fun.protect
    ~finally:(fun () ->
      Runtime.set prior;
      Analysis.Ownership.ensure ();
      Obs.Trace.reset ())
  @@ fun () ->
  Runtime.set
    {
      prior with
      jobs = Some 1;
      warm = Runtime.Warm_mode.On;
      faults = None;
      trace = Obs.Trace.Off;
    };
  Analysis.Ownership.set Runtime.Check_mode.Off;
  f ()

(* Minor plus directly-major words: a large array skips the minor
   heap, so minor words alone would not see a slab-sized copy. *)
let words f = snd (Obs.Metrics.allocated_words f)

(* The words [run] allocates, with [check] applied to its result after
   the count: an Alcotest check inside the window would count its own
   formatting, which differs with where the output goes and with
   whether the process ever spawned a domain. *)
let words_checked run check =
  let r, w = Obs.Metrics.allocated_words run in
  check r;
  w

let family_model conf =
  Qrmodel.initial
    (Netgen.Gentopo.as_graph
       (Netgen.generate Netgen.Family.Paper conf (Random.State.make [| 7 |])))

(* -- intern tables scoped per net -- *)

let memo net = Intern.tables (Net.intern_scope net)

let fill m = Intern.size (memo m.Qrmodel.net)

(* Cold runs of every prefix, one after another in this domain. *)
let simulate_each m =
  List.map (fun (p, _) -> (p, Qrmodel.simulate m p)) m.Qrmodel.prefixes

(* Runs on net A and then net B leave B's memo holding exactly what
   B's runs make in a freshly spawned domain. *)
let intern_tables_per_net () =
  quiet @@ fun () ->
  let a = family_model (Netgen.Conf.sized 120)
  and b = family_model Netgen.Conf.tiny in
  ignore (simulate_each a);
  ignore (simulate_each b);
  let fresh =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (simulate_each b);
           fill b))
  in
  check_bool "B's runs interned paths" true (fresh > 0);
  check_int "B's fill equals a fresh domain's" fresh (fill b);
  check_bool "A's tables are A's own" true (fill a <> fill b)

(* Going back to A after runs on B finds A's tables as A left them:
   A's canonical paths are still canonical, and a resume that replays
   every routed node of each converged prefix hits the prepend memo
   each time, allocating what it did before the switch and adding no
   entry. *)
let intern_return_reinterns_nothing () =
  quiet @@ fun () ->
  let a = family_model (Netgen.Conf.sized 120)
  and b = family_model Netgen.Conf.tiny in
  let net = a.Qrmodel.net in
  let states = simulate_each a in
  let routed prev =
    List.filter
      (fun u -> Engine.best prev u <> None)
      (List.init (Net.node_count net) Fun.id)
  in
  let resume_all () =
    List.iter
      (fun (prefix, prev) ->
        Net.clear_touched net prefix;
        let st =
          Engine.simulate ~from:prev ~touched:(routed prev) net ~prefix
            ~originators:(Engine.originating prev)
        in
        check_bool "nothing moved" true (Engine.same_state prev st))
      states
  in
  let path =
    let _, prev = List.hd states in
    List.find
      (fun p -> Array.length p > 0)
      (List.filter_map
         (fun u ->
           Option.map (fun r -> r.Simulator.Rattr.path) (Engine.best prev u))
         (routed prev))
  in
  (* A non-empty path is an eBGP prepend: its head is the sender's AS. *)
  let canonical () =
    Intern.prepend (memo net) ~own_as:path.(0)
      (Array.sub path 1 (Array.length path - 1))
  in
  check_bool "a run's paths are its net's canonical arrays" true
    (canonical () == path);
  resume_all ();
  let before = fill a and settled = words resume_all in
  ignore (simulate_each b);
  check_int "the resume allocates what it did before B" settled
    (words resume_all);
  check_int "A's tables unchanged" before (fill a);
  check_bool "A's paths still canonical" true (canonical () == path)

(* Observing one world after another keeps one world's tables, not the
   sum: a path memoized in a world's scope is collected once the world
   is. *)
let observe_world seed weak i =
  let world =
    Netgen.Groundtruth.build { Netgen.Conf.tiny with Netgen.Conf.seed }
  in
  ignore (Netgen.Groundtruth.observe world);
  let net = world.Netgen.Groundtruth.net in
  check_bool "the world's runs interned paths" true
    (Intern.size (memo net) > 0);
  Weak.set weak i (Some (Intern.prepend (memo net) ~own_as:64512 [| i |]))
[@@inline never]

let observed_worlds_keep_one_world () =
  quiet @@ fun () ->
  let worlds = 4 in
  let weak = Weak.create worlds in
  for i = 0 to worlds - 1 do
    observe_world (i + 1) weak i;
    Gc.full_major ();
    for j = 0 to i - 1 do
      check_bool
        (Printf.sprintf "world %d's paths died with it" j)
        false (Weak.check weak j)
    done
  done

(* A resume with nothing to replay allocates no slab-, node- or
   slot-sized array: the same words on a 4x larger model, and the same
   on every repeat. *)
let noop_resume_cost_is_size_independent () =
  quiet @@ fun () ->
  let case conf =
    let m = family_model conf in
    let prefix = fst (List.hd m.Qrmodel.prefixes) in
    let prev = Qrmodel.simulate m prefix in
    Net.clear_touched m.Qrmodel.net prefix;
    (m, prefix, prev)
  in
  let small = case Netgen.Conf.tiny and large = case (Netgen.Conf.sized 240) in
  let resume (m, prefix, prev) =
    words_checked
      (fun () ->
        Engine.simulate ~from:prev ~touched:[] m.Qrmodel.net ~prefix
          ~originators:(Engine.originating prev))
      (fun st ->
        check_int "no events" 0 (Engine.events st);
        check_bool "same state" true (Engine.same_state prev st))
  in
  let size (m, _, _) = Net.session_count m.Qrmodel.net in
  check_bool "models differ 4x in slots" true (size large > 4 * size small);
  (* The first runs build each CSR and size the domain's scratch. *)
  ignore (resume large);
  ignore (resume small);
  let on_small = resume small in
  let on_large = resume large in
  check_int "same words on both sizes" on_small on_large;
  check_int "same words on a repeat" on_large (resume large)

(* A resume whose deny moves one node's best route copies that node's
   row, the rows index and the best array, never the slot slab: on a
   4x larger model the words grow with the node count, not with the
   slot count.  The denied session is the one the last routed node's
   best route arrived on: a stub, whose loss moves a few routes at
   most. *)
let deny_resume_cost_follows_nodes () =
  quiet @@ fun () ->
  let case conf =
    let m = family_model conf in
    let net = m.Qrmodel.net in
    let prefix = fst (List.hd m.Qrmodel.prefixes) in
    let prev = Qrmodel.simulate m prefix in
    Net.clear_touched net prefix;
    let u =
      List.find
        (fun u ->
          match Engine.best prev u with
          | Some r -> r.Simulator.Rattr.from_session >= 0
          | None -> false)
        (List.rev (List.init (Net.node_count net) Fun.id))
    in
    let r = Option.get (Engine.best prev u) in
    let from = r.Simulator.Rattr.from_node in
    Net.deny_export net from
      (Net.session_reverse net u r.Simulator.Rattr.from_session)
      prefix;
    (m, prefix, prev, from)
  in
  let small = case Netgen.Conf.tiny and large = case (Netgen.Conf.sized 240) in
  let resume (m, prefix, prev, from) =
    words_checked
      (fun () ->
        Engine.simulate ~from:prev ~touched:[ from ] m.Qrmodel.net ~prefix
          ~originators:(Engine.originating prev))
      (fun st ->
        check_bool "the deny moved a route" false (Engine.same_state prev st))
  in
  let nodes (m, _, _, _) = Net.node_count m.Qrmodel.net in
  let slots (m, _, _, _) = Net.session_count m.Qrmodel.net in
  check_bool "models differ 4x in slots" true (slots large > 4 * slots small);
  ignore (resume large);
  ignore (resume small);
  let on_small = resume small in
  let on_large = resume large in
  check_bool
    (Printf.sprintf "words %d -> %d grow by at most 3 per node (%d -> %d)"
       on_small on_large (nodes small) (nodes large))
    true
    (on_large - on_small <= 3 * (nodes large - nodes small));
  check_bool
    (Printf.sprintf "words %d below the %d-slot slab" on_large (slots large))
    true (on_large < slots large)

(* Replaying a node re-exports its unchanged best route over every
   session, and every import is suppressed: the words allocated must not
   depend on how many sessions the node has. *)
let unchanged_reexport_allocates_nothing_per_session () =
  quiet @@ fun () ->
  let m = family_model (Netgen.Conf.sized 240) in
  let net = m.Qrmodel.net in
  let prefix = fst (List.hd m.Qrmodel.prefixes) in
  let prev = Qrmodel.simulate m prefix in
  Net.clear_touched net prefix;
  let routed =
    List.filter
      (fun u -> Engine.best prev u <> None)
      (List.init (Net.node_count net) Fun.id)
  in
  let by_degree =
    List.sort
      (fun a b -> compare (Net.session_count_of net a) (Net.session_count_of net b))
      routed
  in
  let narrow = List.hd by_degree and wide = List.hd (List.rev by_degree) in
  check_bool "degrees differ" true
    (Net.session_count_of net wide > 4 * Net.session_count_of net narrow);
  let replay u =
    words_checked
      (fun () ->
        Engine.simulate ~from:prev ~touched:[ u ] net ~prefix
          ~originators:(Engine.originating prev))
      (fun st ->
        check_int "one replay event" 1 (Engine.events st);
        check_bool "nothing moved" true (Engine.same_state prev st))
  in
  ignore (replay wide);
  ignore (replay narrow);
  check_int "same words on a wide and a narrow node" (replay narrow)
    (replay wide)

(* One export shares its import records: AS 2's router [h] learns the
   prefix from AS 1's [x] and exports it to [k] receivers, each of which
   also peers with [x] and keeps [x]'s shorter route, so the MED a
   receiver assigns to [h]'s route ([meds i]) changes the records [h]'s
   export writes and nothing else.  Returns the words of a cold run,
   after one run that warmed the prepend memo and the scratch. *)
let fan_out_words ~k meds =
  let net = Net.create () in
  let node asn = Net.add_node net ~asn ~ip:(Asn.router_ip asn 0) in
  let x = node 1 and h = node 2 in
  ignore (Net.connect net x h);
  let p = Asn.origin_prefix 1 in
  let receivers =
    List.init k (fun i ->
        let r = node (10 + i) in
        ignore (Net.connect net x r);
        let _, s = Net.connect net h r in
        Net.set_import_med net r s p (meds i);
        r)
  in
  let run () = Engine.simulate net ~prefix:p ~originators:[ x ] in
  ignore (run ());
  words_checked run (fun st ->
      check_bool "converged" true (Engine.converged st);
      List.iter
        (fun r ->
          check_bool "a receiver keeps the direct route" true
            (match Engine.best st r with
            | Some b -> b.Simulator.Rattr.from_node = x
            | None -> false);
          check_int "a receiver holds h's route" 2
            (List.length (Engine.rib_in st r)))
        receivers)

(* An import record is a 4-field block: 5 words.  With every receiver's
   MED equal, [h]'s export over its [k] sessions writes one record; a
   receiver whose MED differs gets a record of its own; [k] distinct
   MEDs make [k] records. *)
let equal_imports_share_one_record () =
  quiet @@ fun () ->
  let k = 16 and record = 5 in
  let equal = fan_out_words ~k (fun _ -> 5) in
  let one_differs = fan_out_words ~k (fun i -> if i = k / 2 then 6 else 5) in
  let all_differ = fan_out_words ~k (fun i -> 10 + i) in
  check_int "one differing MED costs one record" record (one_differs - equal);
  check_int "k distinct MEDs cost k records" ((k - 1) * record)
    (all_differ - equal)

(* A resume that writes copies before its first write: the parent state
   it started from keeps its routes. *)
let resume_leaves_parent_unchanged () =
  quiet @@ fun () ->
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let originators = Qrmodel.originators m p in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  let fp = Engine.state_fingerprint prev in
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let r =
    match Engine.best prev n1 with
    | Some r -> r
    | None -> Alcotest.fail "AS 1 has no route"
  in
  (* Deny the advertisement AS 1's best route arrived on. *)
  let from = r.Simulator.Rattr.from_node in
  let s = Net.session_reverse net n1 r.Simulator.Rattr.from_session in
  Net.deny_export net from s p;
  let warm = Engine.simulate ~from:prev net ~prefix:p ~originators in
  check_bool "the deny moved a route" true
    (Engine.state_fingerprint warm <> fp);
  check_int "parent fingerprint unchanged" fp (Engine.state_fingerprint prev);
  check_equivalent "deny" (Qrmodel.simulate m p) warm;
  Net.allow_export net from s p;
  Net.clear_touched net p

(* -- scratch reuse after a run that did not converge -- *)

let p_osc = Asn.origin_prefix 1

let p_calm = Asn.origin_prefix 2

(* An RFC 3345-style MED oscillation under neighbour-scoped MED.  AS 10
   has routers r0, r1 and r2; r2 reflects for its client r0 and peers
   with r1 as a non-client.  AS 1 (x) reaches r1 with MED 0 and r0 with
   MED 1; AS 2 (y) reaches r0 with MED 2.  r0 prefers x's route by
   router address until r2 reflects r1's MED 0 route, which eliminates
   it; r0 then announces y's route, which r2 prefers by IGP cost (1
   against 15) and so stops reflecting r1's route; r0 falls back to x's
   route, and r2 takes r1's again.  Under always-compare MED the same
   net converges.  [p_calm], originated by x alone with no MED rule,
   converges. *)
let oscillating_net () =
  let net = Net.create () in
  let r = Array.init 3 (fun i -> Net.add_node net ~asn:10 ~ip:(Asn.router_ip 10 i)) in
  let x = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let y = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let _, s20 = Net.connect ~kind:Net.Ibgp net r.(0) r.(2) in
  Net.set_rr_client net r.(2) s20 true;
  ignore (Net.connect ~kind:Net.Ibgp net r.(1) r.(2));
  List.iter
    (fun (i, ext, med) ->
      let s, _ = Net.connect net r.(i) ext in
      Net.set_import_med net r.(i) s p_osc med)
    [ (1, x, 0); (0, x, 1); (0, y, 2) ];
  Net.set_igp_cost net (fun a b ->
      match (min a b, max a b) with
      | 0, 1 -> 7
      | 0, 2 -> 1
      | 1, 2 -> 15
      | _ -> 0);
  Net.set_decision_steps net Simulator.Decision.full_steps;
  Net.set_med_scope net Simulator.Decision.Same_neighbor;
  Net.clear_touched net p_osc;
  (net, x, y)

(* Fingerprint and event count of a [p_calm] run. *)
let calm_run net x =
  let st = Engine.simulate net ~prefix:p_calm ~originators:[ x ] in
  check_bool "calm prefix converges" true (Engine.converged st);
  (Engine.state_fingerprint st, Engine.events st)

(* The same run in a freshly spawned domain, whose scratch is fresh, on
   a net of its own. *)
let calm_run_fresh () =
  Domain.join
    (Domain.spawn (fun () ->
         let net, x, _ = oscillating_net () in
         calm_run net x))

let scratch_reuse_after_non_convergence () =
  quiet @@ fun () ->
  let expected = calm_run_fresh () in
  let net, x, y = oscillating_net () in
  let st = Engine.simulate net ~prefix:p_osc ~originators:[ x; y ] in
  (match Engine.outcome st with
  | Engine.Diverged _ -> ()
  | o -> Alcotest.failf "expected a divergence, got %a" Engine.pp_outcome o);
  check_bool "diverged state not resumable" false (Engine.resumable net st);
  let table : Warm.table = Hashtbl.create 1 in
  Hashtbl.replace table p_osc st;
  check_bool "quarantined" true (Warm.quarantined table p_osc);
  let w0 = Warm.stats () in
  let b = Warm.converge table net ~originators:(fun _ -> [ x; y ]) [ p_osc ] in
  let w1 = Warm.stats () in
  check_int "Warm.converge ran it cold" 1 (w1.Warm.cold_runs - w0.Warm.cold_runs);
  check_int "and did not resume" 0 (w1.Warm.warm_runs - w0.Warm.warm_runs);
  check_int "the batch counts no resume" 0 b.Warm.resumed;
  check_bool "diverges again" true
    (match Hashtbl.find_opt table p_osc with
    | Some again -> (
        match Engine.outcome again with Engine.Diverged _ -> true | _ -> false)
    | None -> false);
  check_bool "still quarantined" true (Warm.quarantined table p_osc);
  Alcotest.(check (pair int int))
    "next run after a divergence = fresh domain" expected (calm_run net x);
  Net.set_med_scope net Simulator.Decision.Always_compare;
  check_bool "always-compare MED converges" true
    (Engine.converged (Engine.simulate net ~prefix:p_osc ~originators:[ x; y ]));
  Net.set_med_scope net Simulator.Decision.Same_neighbor;
  let cut = Engine.simulate ~max_events:1 net ~prefix:p_calm ~originators:[ x ] in
  check_bool "one event truncates" true
    (match Engine.outcome cut with Engine.Truncated _ -> true | _ -> false);
  Alcotest.(check (pair int int))
    "next run after a truncation = fresh domain" expected (calm_run net x)

(* -- incremental best-route selection -- *)

(* Every node's best route is the one Decision.select picks from the
   node's candidates, down to the session it arrived on: the lower slot
   among equal routes, as in RIB-In order. *)
let selects_like_decision net st =
  let steps = Net.decision_steps net and med_scope = Net.med_scope net in
  List.for_all
    (fun n ->
      match
        ( Engine.best st n,
          Simulator.Decision.select ~med_scope steps
            (Engine.candidates st net n) )
      with
      | None, None -> true
      | Some a, Some b ->
          Simulator.Rattr.same_route a b
          && a.Simulator.Rattr.from_session = b.Simulator.Rattr.from_session
      | Some _, None | None, Some _ -> false)
    (List.init (Net.node_count net) Fun.id)

let check_selects label net st =
  check_bool (label ^ ": converged") true (Engine.converged st);
  check_bool (label ^ ": best = Decision.select") true
    (selects_like_decision net st)

let session net a b =
  match Net.find_session net a b with
  | Some s -> s
  | None -> Alcotest.failf "no session %d-%d" a b

(* X hears AS 4's prefix over B and C at equal length and prefers B by
   address; D's route is one hop longer.  A MED rule at X on B's session
   overwrites X's best slot with a route worse than C's, so X must scan:
   the runner-up C wins, though no write brought it. *)
let overwritten_best_yields_runner_up () =
  let m =
    Qrmodel.initial
      (Topology.Asgraph.of_edges
         [ (1, 2); (1, 3); (1, 5); (2, 4); (3, 4); (5, 6); (6, 4) ])
  in
  let net = m.Qrmodel.net in
  let x = node_of net 1 and b = node_of net 2 in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  check_selects "cold" net prev;
  check_bool "X prefers B" true
    (Engine.best_full_path net prev x = Some [| 1; 2; 4 |]);
  Net.set_import_med net x (session net x b) p 150;
  let warm =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  check_selects "warm" net warm;
  check_bool "X falls back to C" true
    (Engine.best_full_path net warm x = Some [| 1; 3; 4 |]);
  check_equivalent "worse overwrite" (Qrmodel.simulate m p) warm

(* Without the router-address step, X's routes from B1 and B2 (both
   one hop from the origin O) are equal, so the lower slot wins, as in
   the reference engine, whichever of the two reaches X first: O
   announces to B2 first when [b2_first].  Denying B1's export empties
   X's best slot and sends X to the upper one; allowing it again brings
   back an equal route in the lower slot, which wins again.  Denying and
   allowing B2's export then brings back an equal route in the upper
   slot, which loses. *)
let equal_routes_case ~b2_first =
  let net = Net.create () in
  let node asn = Net.add_node net ~asn ~ip:(Asn.router_ip asn 0) in
  let x = node 1 in
  let b1 = node 2 in
  let b2 = node 3 in
  let o = node 4 in
  let s_b1, _ = Net.connect net x b1 in
  let s_b2, _ = Net.connect net x b2 in
  List.iter
    (fun b -> ignore (Net.connect net o b))
    (if b2_first then [ b2; b1 ] else [ b1; b2 ]);
  Net.set_decision_steps net
    Simulator.Decision.[ Local_pref; Path_length; Med ];
  let prefix = Asn.origin_prefix 4 and originators = [ o ] in
  let same_as_reference label st rst =
    check_selects label net st;
    check_int (label ^ ": reference fingerprint")
      (Engine_reference.state_fingerprint rst)
      (Engine.state_fingerprint st);
    check_int (label ^ ": reference events") (Engine_reference.events rst)
      (Engine.events st)
  in
  let from_session st =
    (Option.get (Engine.best st x)).Simulator.Rattr.from_session
  in
  let st = Engine.simulate net ~prefix ~originators in
  let rst = Engine_reference.simulate net ~prefix ~originators in
  same_as_reference "cold" st rst;
  check_int "cold: the lower slot" s_b1 (from_session st);
  let resume label (st, rst) edit want =
    Net.clear_touched net prefix;
    edit ();
    let st = Engine.simulate ~from:st net ~prefix ~originators in
    let rst = Engine_reference.simulate ~from:rst net ~prefix ~originators in
    same_as_reference label st rst;
    check_int (label ^ ": best slot") want (from_session st);
    (st, rst)
  in
  let denied =
    resume "B1 denied" (st, rst)
      (fun () -> Net.deny_export net b1 (session net b1 x) prefix)
      s_b2
  in
  let allowed =
    resume "B1 allowed" denied
      (fun () -> Net.allow_export net b1 (session net b1 x) prefix)
      s_b1
  in
  let denied =
    resume "B2 denied" allowed
      (fun () -> Net.deny_export net b2 (session net b2 x) prefix)
      s_b1
  in
  ignore
    (resume "B2 allowed" denied
       (fun () -> Net.allow_export net b2 (session net b2 x) prefix)
       s_b1)

let equal_routes_lower_slot_wins () =
  List.iter (fun b2_first -> equal_routes_case ~b2_first) [ true; false ]

(* One decision of X sees three writes: J's replay improves X's slot
   from J (MED 50), K's replay makes X's slot from K better still (MED
   0), and K, whose direct route O denied, then re-exports a longer
   route into that slot.  The route from J, written before the pending
   one was overwritten, wins.  Replays run in node order and K is
   queued before X, so all three writes precede X's decision. *)
let overwritten_pending_yields_earlier_write () =
  let net = Net.create () in
  let node asn = Net.add_node net ~asn ~ip:(Asn.router_ip asn 0) in
  let o = node 4 in
  let j = node 2 in
  let k = node 3 in
  let x = node 1 in
  ignore (Net.connect net o j);
  let s_ok, _ = Net.connect net o k in
  ignore (Net.connect net j k);
  let _, s_xj = Net.connect net j x in
  let _, s_xk = Net.connect net k x in
  let prefix = Asn.origin_prefix 4 and originators = [ o ] in
  let prev = Engine.simulate net ~prefix ~originators in
  check_bool "X prefers J" true
    (Engine.best_full_path net prev x = Some [| 1; 2; 4 |]);
  Net.clear_touched net prefix;
  Net.deny_export net o s_ok prefix;
  Net.set_import_med net x s_xj prefix 50;
  Net.set_import_med net x s_xk prefix 0;
  let warm = Engine.simulate ~from:prev net ~prefix ~originators in
  check_selects "warm" net warm;
  check_bool "X keeps J's improved route" true
    (Engine.best_full_path net warm x = Some [| 1; 2; 4 |]);
  check_equivalent "overwritten pending"
    (Engine.simulate net ~prefix ~originators)
    warm

(* A resume that adds an originator re-runs its decision against the
   originated route; one that drops it rescans the node's slots.  A MED
   rule at AS 2 makes the replay of AS 3 write a better route into AS
   2's slots in the same resume that adds AS 2's origination: the
   originated route still wins. *)
let resume_changes_originators () =
  let m, net, prev = diamond_state () in
  let one = Qrmodel.originators m p in
  let n2 = node_of net 2 in
  let two = List.sort_uniq compare (n2 :: one) in
  Net.set_import_med net n2 (session net n2 (node_of net 3)) p 0;
  let added = Engine.simulate ~from:prev net ~prefix:p ~originators:two in
  check_selects "added" net added;
  check_bool "AS 2 originates" true
    (Engine.best_full_path net added n2 = Some [| 2 |]);
  check_equivalent "added"
    (Engine.simulate net ~prefix:p ~originators:two)
    added;
  let dropped = Engine.simulate ~from:added net ~prefix:p ~originators:one in
  check_selects "dropped" net dropped;
  check_bool "AS 2 takes AS 3's route" true
    (Engine.best_full_path net dropped n2 = Some [| 2; 3; 4 |]);
  check_equivalent "dropped"
    (Engine.simulate net ~prefix:p ~originators:one)
    dropped

(* A cold run of one model's prefix and a resume after a deny: what a
   domain computes on a net of its own. *)
let run_after_truncation seed =
  let m = family_model { Netgen.Conf.tiny with Netgen.Conf.seed } in
  let net = m.Qrmodel.net in
  let prefix = fst (List.hd m.Qrmodel.prefixes) in
  let originators = Qrmodel.originators m prefix in
  let cold = Engine.simulate net ~prefix ~originators in
  Net.clear_touched net prefix;
  let o = List.hd originators in
  Net.deny_export net o (fst (List.hd (Net.sessions_of net o))) prefix;
  let warm = Engine.simulate ~from:cold net ~prefix ~originators in
  ( Engine.state_fingerprint cold,
    Engine.events cold,
    Engine.state_fingerprint warm,
    Engine.events warm )

(* A run cut off by [~max_events] leaves queued nodes with pending
   candidates; the next run, on another net, computes what it computes
   in a domain that never ran anything. *)
let truncation_leaves_scratch_clean () =
  quiet @@ fun () ->
  let expected = Domain.join (Domain.spawn (fun () -> run_after_truncation 9)) in
  let m = family_model (Netgen.Conf.sized 120) in
  let prefix = fst (List.hd m.Qrmodel.prefixes) in
  let cut =
    Engine.simulate ~max_events:40 m.Qrmodel.net ~prefix
      ~originators:(Qrmodel.originators m prefix)
  in
  check_bool "truncated" true
    (match Engine.outcome cut with Engine.Truncated _ -> true | _ -> false);
  check_bool "same as a fresh domain" true (run_after_truncation 9 = expected)

(* Random per-prefix deny, MED and LOCAL_PREF edits and what-if link
   denies on the worlds of every family.  After each edit the state
   resumed from the previous one (a patched state), and at the end the
   state resumed from the first (a warm state across every edit), pass
   the audit's best-route check and equal a cold run.  A LOCAL_PREF
   edit can break the total route order, and with it the unique fixed
   point (see [duplicate_some]): after one, a resumed state that
   differs from the cold run must be a stable state of its own, with no
   audit finding at all, and a run may fail to converge (paper §4.6).
   Each step is (kind, node or link, session, value). *)
let prop_incremental_best =
  let gen =
    QCheck.Gen.(
      let* world = int_bound 1_000 in
      let* prefix = int_bound 1_000 in
      let* steps =
        list_size (int_range 1 4)
          (quad (int_bound 3) (int_bound 1_000_000) (int_bound 1_000_000)
             (int_bound 1_000_000))
      in
      return (world, prefix, steps))
  in
  let print (world, prefix, steps) =
    let graphs = Lazy.force family_graphs in
    Printf.sprintf "world=%s prefix=%d steps=%s"
      (fst graphs.(world mod Array.length graphs))
      prefix
      (String.concat ","
         (List.map
            (fun (k, a, b, v) -> Printf.sprintf "%d/%d/%d/%d" k a b v)
            steps))
  in
  QCheck.Test.make
    ~name:"incremental best = Decision.select, warm and patched = cold"
    ~count:300 (QCheck.make ~print gen)
    (fun (world, pick, steps) ->
      let graphs = Lazy.force family_graphs in
      let m = Qrmodel.initial (snd graphs.(world mod Array.length graphs)) in
      let net = m.Qrmodel.net in
      let prefix =
        fst (List.nth m.Qrmodel.prefixes (pick mod List.length m.Qrmodel.prefixes))
      in
      let originators = Qrmodel.originators m prefix in
      let edges = Array.of_list (Topology.Asgraph.edges m.Qrmodel.graph) in
      let lpref_edited = ref false in
      let edit (kind, a, b, v) =
        let n = a mod Net.node_count net in
        let nsess = Net.session_count_of net n in
        match kind with
        | 3 ->
            let x, y = edges.(a mod Array.length edges) in
            ignore (Asmodel.Whatif.disable_as_link ~prefixes:[ prefix ] m x y)
        | _ when nsess = 0 -> ()
        | 0 -> Net.deny_export net n (b mod nsess) prefix
        | 1 -> Net.set_import_med net n (b mod nsess) prefix (v mod 200)
        | _ ->
            lpref_edited := true;
            Net.set_import_lpref_for net n (b mod nsess) prefix (v mod 200)
      in
      let audited st =
        not
          (List.exists
             (fun f -> f.Analysis.Report.rule = "audit-best")
             (Analysis.Audit.state net st))
      in
      let agrees st =
        let cold = Qrmodel.simulate m prefix in
        if !lpref_edited then
          (not (Engine.converged st))
          || audited st
             && (Engine.same_state cold st || Analysis.Audit.state net st = [])
        else
          Engine.converged cold && Engine.converged st && audited st
          && Engine.same_state cold st
      in
      let root = Qrmodel.simulate m prefix in
      Net.clear_touched net prefix;
      let touched = ref [] in
      let rec go parent = function
        | [] -> true
        | step :: rest ->
            edit step;
            touched := Net.touched_nodes net prefix @ !touched;
            let child = Engine.simulate ~from:parent net ~prefix ~originators in
            Net.clear_touched net prefix;
            agrees child && ((not (Engine.converged child)) || go child rest)
      in
      (not (Engine.converged root))
      || go root steps
         && agrees
              (Engine.simulate ~from:root
                 ~touched:(List.sort_uniq compare !touched)
                 net ~prefix ~originators))

(* -- the refiner under each mode -- *)

let fig5_training =
  let op asn = { Rib.op_ip = Asn.router_ip asn 0; op_as = asn } in
  let entry o origin path_list =
    {
      Rib.op = op o;
      prefix = Asn.origin_prefix origin;
      path = Aspath.of_list path_list;
    }
  in
  Rib.of_entries
    [ entry 1 3 [ 1; 2; 3 ]; entry 1 4 [ 1; 4 ]; entry 1 4 [ 1; 5; 4 ] ]

let refine_in warm =
  let prior = Runtime.current () in
  Runtime.set { prior with warm };
  Fun.protect
    ~finally:(fun () -> Runtime.set prior)
    (fun () ->
      let m = Qrmodel.initial diamond_graph in
      Refiner.refine m ~training:fig5_training)

let refiner_mode_equivalence () =
  let off = refine_in Runtime.Warm_mode.Off in
  let on = refine_in Runtime.Warm_mode.On in
  check_bool "off converged" true off.Refiner.converged;
  check_bool "on converged" true on.Refiner.converged;
  check_int "same matched" off.Refiner.matched on.Refiner.matched;
  check_int "same total" off.Refiner.total on.Refiner.total;
  check_int "same iterations" off.Refiner.iterations on.Refiner.iterations;
  (* Same final routing, state by state. *)
  Hashtbl.iter
    (fun prefix st_off ->
      match Hashtbl.find_opt on.Refiner.states prefix with
      | None -> Alcotest.fail "state missing under warm mode"
      | Some st_on ->
          check_int "same final fingerprint"
            (Engine.state_fingerprint st_off)
            (Engine.state_fingerprint st_on))
    off.Refiner.states;
  (* Same answers for less work: resumes drain fewer engine events. *)
  let events (r : Refiner.result) = r.Refiner.pool.Simulator.Pool.events in
  check_bool "warm drains fewer events" true (events on < events off)

let refiner_verify_clean () =
  let before = Warm.stats () in
  let r = refine_in Runtime.Warm_mode.Verify in
  check_bool "verify converged" true r.Refiner.converged;
  let after = Warm.stats () in
  check_bool "some pairs compared" true
    (after.Warm.verified - before.Warm.verified > 0);
  check_int "zero divergences" 0
    (after.Warm.divergences - before.Warm.divergences)

(* On a seeded world whose refinement duplicates quasi-routers, every
   run after iteration 1 resumes warm (the final pass included), and
   the refined model is the one a cold-only refinement builds. *)
let refiner_resumes_across_duplications () =
  let data =
    Netgen.Groundtruth.observe
      (Netgen.Groundtruth.build { Netgen.Conf.tiny with Netgen.Conf.seed = 5 })
  in
  let prepared = Core.prepare data in
  let build warm =
    let prior = Runtime.current () in
    Runtime.set { prior with warm; faults = None };
    Fun.protect ~finally:(fun () -> Runtime.set prior) @@ fun () ->
    let w0 = Warm.stats () in
    let r = Core.build prepared ~training:prepared.Core.data in
    let w1 = Warm.stats () in
    (r, w1.Warm.cold_runs - w0.Warm.cold_runs, w1.Warm.warm_runs - w0.Warm.warm_runs)
  in
  let on, cold_runs, warm_runs = build Runtime.Warm_mode.On in
  let dups =
    List.fold_left (fun acc s -> acc + s.Refiner.duplications) 0 on.Refiner.history
  in
  check_bool "the refinement duplicates" true (dups > 0);
  let first = (List.hd on.Refiner.history).Refiner.pool.Simulator.Pool.prefixes in
  check_int "only iteration 1 runs cold" first cold_runs;
  check_int "every later run resumes"
    (on.Refiner.pool.Simulator.Pool.prefixes - first)
    warm_runs;
  let off, _, _ = build Runtime.Warm_mode.Off in
  check_bool "same model as RD_WARM=off" true
    (Asmodel.Serialize.to_lines on.Refiner.model
    = Asmodel.Serialize.to_lines off.Refiner.model)

(* -- scoped cold runs (Engine.with_cold) -- *)

(* A ground-truth world of every generator family at [Conf.tiny]:
   route reflection and same-neighbour MED on four AS-level shapes. *)
let scoped_worlds =
  lazy
    (List.map
       (fun family ->
         ( Netgen.Family.name family,
           Netgen.Groundtruth.build
             { Netgen.Conf.tiny with Netgen.Conf.family; seed = 3 } ))
       Netgen.Family.
         [
           Paper;
           Waxman default_waxman;
           Glp default_glp;
           Fattree default_fattree;
         ])

(* What a caller can read of a state: every node's best route, the
   outcome, the event count and the routing fingerprint. *)
let reading net st =
  ( List.init (Net.node_count net) (Engine.best st),
    Engine.outcome st,
    Engine.events st,
    Engine.state_fingerprint st )

let cold_reading net (prefix, _, anchors) =
  reading net (Engine.simulate net ~prefix ~originators:anchors)

let scoped_reading net (prefix, _, anchors) =
  Engine.with_cold net ~prefix ~originators:anchors (reading net)

(* Inside [f], a scoped run reads as the cold run of {!Engine.simulate},
   for every prefix of every family, inside a pool batch on one worker
   and on four. *)
let scoped_run_equals_simulate () =
  List.iter
    (fun (name, w) ->
      let net = w.Netgen.Groundtruth.net
      and plan = w.Netgen.Groundtruth.prefix_plan in
      let want = List.map (cold_reading net) plan in
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "%s, %d jobs: scoped = simulate" name jobs)
            true
            (Simulator.Pool.map ~jobs (scoped_reading net) plan = want))
        [ 1; 4 ])
    (Lazy.force scoped_worlds)

(* A scoped run inside another one, and after one whose [f] raised,
   reads as the cold run; the outer state is intact after the inner
   run returns its arrays. *)
let scoped_run_nests_and_unwinds () =
  let w = List.assoc "paper" (Lazy.force scoped_worlds) in
  let net = w.Netgen.Groundtruth.net in
  let outer, inner =
    match w.Netgen.Groundtruth.prefix_plan with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "the world plans fewer than two prefixes"
  in
  let prefix, _, anchors = outer in
  Engine.with_cold net ~prefix ~originators:anchors (fun st ->
      check_bool "outer before" true (reading net st = cold_reading net outer);
      check_bool "nested" true
        (scoped_reading net inner = cold_reading net inner);
      check_bool "outer after" true (reading net st = cold_reading net outer));
  check_bool "exception propagates" true
    (match
       Engine.with_cold net ~prefix ~originators:anchors (fun _ -> raise Exit)
     with
    | () -> false
    | exception Exit -> true);
  check_bool "next run after a raise" true
    (scoped_reading net outer = cold_reading net outer);
  check_bool "next run of another prefix" true
    (scoped_reading net inner = cold_reading net inner)

(* A state that escapes [f] reads as empty, before and after its arrays
   serve another run, and resumes on no net. *)
let escaped_state_reads_empty () =
  let w = List.assoc "paper" (Lazy.force scoped_worlds) in
  let net = w.Netgen.Groundtruth.net in
  let a, b =
    match w.Netgen.Groundtruth.prefix_plan with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "the world plans fewer than two prefixes"
  in
  let prefix, _, anchors = a in
  let nodes = List.init (Net.node_count net) Fun.id in
  let empty st =
    List.for_all
      (fun n ->
        Engine.best st n = None
        && Engine.rib_in st n = []
        && Engine.candidates st net n = [])
      nodes
  in
  let esc = Engine.with_cold net ~prefix ~originators:anchors Fun.id in
  check_bool "escaped state reads empty" true (empty esc);
  check_int "escaped state's generation" (-1) (Engine.generation esc);
  check_bool "escaped state is not resumable" false (Engine.resumable net esc);
  let bp, _, ba = b in
  Engine.with_cold net ~prefix:bp ~originators:ba (fun st ->
      check_bool "the recycling run has routes" false (empty st);
      check_bool "escaped state still reads empty" true (empty esc));
  check_bool "again, after the recycling run" true (empty esc);
  check_bool "a resume from it runs cold" true
    (reading net (Engine.simulate ~from:esc net ~prefix ~originators:anchors)
    = cold_reading net a)

(* Once its domain holds a spare pair, a scoped run allocates neither a
   slab nor a best array: it costs more than a slab less than the same
   run through {!Engine.simulate} (its own closures cost a few words). *)
let scoped_run_recycles_its_arrays () =
  quiet @@ fun () ->
  let w = List.assoc "paper" (Lazy.force scoped_worlds) in
  let net = w.Netgen.Groundtruth.net in
  let prefix, _, originators = List.hd w.Netgen.Groundtruth.prefix_plan in
  let scoped () = Engine.with_cold net ~prefix ~originators ignore in
  scoped ();
  let cold = words (fun () -> ignore (Engine.simulate net ~prefix ~originators))
  and reused = words scoped in
  check_bool "no slab" true
    (cold - reused > Net.Csr.slot_count (Net.csr net))

let suite =
  [
    Alcotest.test_case "touched tracking" `Quick touched_tracking;
    Alcotest.test_case "generation tracking" `Quick generation_tracking;
    Alcotest.test_case "resume after policy change" `Quick
      resume_after_policy_change;
    Alcotest.test_case "resume after filter removal" `Quick
      resume_after_filter_removal;
    Alcotest.test_case "no-op resume is free" `Quick resume_noop_is_free;
    Alcotest.test_case "warm locality on a chain" `Quick warm_locality;
    Alcotest.test_case "resumable guards" `Quick resumable_guards;
    Alcotest.test_case "path interning" `Quick interning;
    Alcotest.test_case "intern tables are per net" `Quick intern_tables_per_net;
    Alcotest.test_case "returning to a net re-interns nothing" `Quick
      intern_return_reinterns_nothing;
    Alcotest.test_case "observed worlds keep one world's paths" `Quick
      observed_worlds_keep_one_world;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    QCheck_alcotest.to_alcotest prop_warm_across_duplications;
    QCheck_alcotest.to_alcotest prop_patched_chain;
    Alcotest.test_case "no-op resume costs the same on any size" `Quick
      noop_resume_cost_is_size_independent;
    Alcotest.test_case "a deny's resume costs nodes, not slots" `Quick
      deny_resume_cost_follows_nodes;
    Alcotest.test_case "unchanged re-export allocates nothing per session"
      `Quick unchanged_reexport_allocates_nothing_per_session;
    Alcotest.test_case "equal imports share one record" `Quick
      equal_imports_share_one_record;
    Alcotest.test_case "resume leaves its parent unchanged" `Quick
      resume_leaves_parent_unchanged;
    Alcotest.test_case "scratch reuse after a diverged or truncated run" `Quick
      scratch_reuse_after_non_convergence;
    Alcotest.test_case "an overwritten best yields the runner-up" `Quick
      overwritten_best_yields_runner_up;
    Alcotest.test_case "an overwritten pending route yields an earlier write"
      `Quick overwritten_pending_yields_earlier_write;
    Alcotest.test_case "equal routes: the lower slot wins" `Quick
      equal_routes_lower_slot_wins;
    Alcotest.test_case "resumes that add and drop an originator" `Quick
      resume_changes_originators;
    Alcotest.test_case "a truncation leaves the scratch clean" `Quick
      truncation_leaves_scratch_clean;
    QCheck_alcotest.to_alcotest prop_incremental_best;
    Alcotest.test_case "a scoped run reads as simulate" `Quick
      scoped_run_equals_simulate;
    Alcotest.test_case "scoped runs nest and unwind" `Quick
      scoped_run_nests_and_unwinds;
    Alcotest.test_case "an escaped scoped state reads empty" `Quick
      escaped_state_reads_empty;
    Alcotest.test_case "a scoped run recycles its arrays" `Quick
      scoped_run_recycles_its_arrays;
    Alcotest.test_case "refiner mode equivalence" `Quick
      refiner_mode_equivalence;
    Alcotest.test_case "refiner verify is clean" `Quick refiner_verify_clean;
    Alcotest.test_case "refiner resumes across duplications" `Quick
      refiner_resumes_across_duplications;
  ]
