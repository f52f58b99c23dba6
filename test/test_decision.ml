(* Tests for the BGP decision process. *)

module D = Simulator.Decision
module R = Simulator.Rattr

let check_bool = Alcotest.(check bool)

let route ?(path = [| 2; 6 |]) ?(lpref = 100) ?(med = 100) ?(igp = 0)
    ?(from_node = 0) ?(from_ip = 10) ?(learned = R.From_ebgp)
    ?(learned_class = -1) ?(from_session = 0) () =
  { R.path; lpref; med; igp; from_node; from_ip; from_session; learned; learned_class }

let steps = D.model_steps

(* [routes] as RIB-In slots: slot [i] holds route [i]'s import
   attributes on a session from node [i], whose kind and address are the
   route's ([Originated] reads as eBGP, which ranks the same). *)
let slots_of (routes : R.t array) =
  let imps =
    Array.map
      (fun (r : R.t) -> { R.path = r.path; lpref = r.lpref; med = r.med; igp = r.igp })
      routes
  in
  let sessions =
    {
      D.kinds =
        Array.map (fun (r : R.t) -> if r.learned = R.From_ibgp then 1 else 0) routes;
      peer = Array.init (Array.length routes) Fun.id;
      ips = Array.map (fun (r : R.t) -> r.from_ip) routes;
    }
  in
  (sessions, (imps : R.import array))

let local_pref_wins () =
  let a = route ~lpref:120 ~path:[| 2; 3; 4; 6 |] () in
  let b = route ~lpref:100 ~path:[| 2; 6 |] () in
  check_bool "higher lpref beats shorter path" true (D.select steps [ a; b ] = Some a)

let path_length_wins () =
  let a = route ~path:[| 2; 6 |] ~med:500 () in
  let b = route ~path:[| 2; 3; 6 |] ~med:0 () in
  check_bool "shorter path beats lower med" true (D.select steps [ a; b ] = Some a)

let med_always_compared () =
  (* Two routes from different neighbour ASes: MED still decides (the
     paper requires always-compare-MED, §4.6). *)
  let a = route ~path:[| 2; 6 |] ~med:0 ~from_ip:99 () in
  let b = route ~path:[| 3; 6 |] ~med:100 ~from_ip:1 () in
  check_bool "lower med wins across neighbours" true
    (D.select steps [ b; a ] = Some a)

let med_scoped_to_neighbor () =
  (* RFC 4271 §9.1.2.2: under [Same_neighbor] scoping, MED only
     compares routes learned from the same neighbouring AS (first hop
     of the path).  Across neighbour ASes it must not decide. *)
  let full = D.full_steps in
  let via2 = route ~path:[| 2; 6 |] ~med:100 ~from_ip:1 () in
  let via3 = route ~path:[| 3; 6 |] ~med:0 ~from_ip:99 () in
  check_bool "always-compare picks the lower med" true
    (D.select full [ via2; via3 ] = Some via3);
  check_bool "scoped med defers to the address tie-break" true
    (D.select ~med_scope:D.Same_neighbor full [ via2; via3 ] = Some via2);
  (* Within one neighbour AS, MED still eliminates. *)
  let via2' = route ~path:[| 2; 6 |] ~med:50 ~from_ip:99 () in
  check_bool "scoped med decides within one neighbour" true
    (D.select ~med_scope:D.Same_neighbor full [ via2; via2' ] = Some via2')

let med_scope_survivors () =
  (* The scoped Med step keeps each neighbour group's minima;
     always-compare keeps only the global minimum. *)
  let a2 = route ~path:[| 2; 6 |] ~med:10 () in
  let b2 = route ~path:[| 2; 7 |] ~med:5 () in
  let c3 = route ~path:[| 3; 6 |] ~med:100 () in
  check_bool "per-neighbour minima survive" true
    (D.survivors ~med_scope:D.Same_neighbor D.Med [ a2; b2; c3 ]
    = [ b2; c3 ]);
  check_bool "always-compare keeps the global minimum" true
    (D.survivors D.Med [ a2; b2; c3 ] = [ b2 ])

let med_scope_classify () =
  (* A cross-neighbour route with the higher MED is eliminated at Med
     under always-compare, but survives down to the tie-break under
     RFC scoping. *)
  let full = D.full_steps in
  let target (r : R.t) = r.R.path = [| 3; 6 |] in
  let via2 = route ~path:[| 2; 6 |] ~med:0 ~from_ip:1 () in
  let via3 = route ~path:[| 3; 6 |] ~med:100 ~from_ip:99 () in
  check_bool "always-compare: dies at med" true
    (D.classify full ~target [ via2; via3 ] = D.Eliminated_at D.Med);
  check_bool "scoped: dies only at the tie-break" true
    (D.classify ~med_scope:D.Same_neighbor full ~target [ via2; via3 ]
    = D.Eliminated_at D.Lowest_ip)

let tie_break_lowest_ip () =
  let a = route ~from_ip:5 () in
  let b = route ~from_ip:9 () in
  check_bool "lowest ip" true (D.select steps [ b; a ] = Some a)

let ebgp_and_igp_steps () =
  let full = D.full_steps in
  let ib = route ~learned:R.From_ibgp ~igp:10 ~from_ip:1 () in
  let eb = route ~learned:R.From_ebgp ~from_ip:9 () in
  check_bool "ebgp preferred" true (D.select full [ ib; eb ] = Some eb);
  let ib2 = route ~learned:R.From_ibgp ~igp:3 ~from_ip:9 () in
  check_bool "hot potato" true (D.select full [ ib; ib2 ] = Some ib2)

let empty_and_single () =
  check_bool "empty" true (D.select steps [] = None);
  let a = route () in
  check_bool "single" true (D.select steps [ a ] = Some a)

let originated_beats_learned () =
  let o = R.originated ~own_ip:42 in
  let l = route ~lpref:200 ~path:[| 2 |] () in
  check_bool "origination wins" true (D.select steps [ l; o ] = Some o)

let classify_verdicts () =
  let target (r : R.t) = r.R.path = [| 3; 6 |] in
  let good = route ~path:[| 3; 6 |] ~from_ip:9 () in
  let short = route ~path:[| 2 |] () in
  let equal_len_lower_ip = route ~path:[| 2; 6 |] ~from_ip:1 () in
  check_bool "selected" true
    (D.classify steps ~target [ good ] = D.Selected);
  check_bool "eliminated at path length" true
    (D.classify steps ~target [ good; short ] = D.Eliminated_at D.Path_length);
  check_bool "eliminated at tie break" true
    (D.classify steps ~target [ good; equal_len_lower_ip ]
    = D.Eliminated_at D.Lowest_ip);
  check_bool "not present" true
    (D.classify steps ~target [ short ] = D.Not_present);
  let high_lpref_rival = route ~path:[| 2; 6 |] ~lpref:300 () in
  check_bool "eliminated at lpref" true
    (D.classify steps ~target [ good; high_lpref_rival ]
    = D.Eliminated_at D.Local_pref)

let arb_route =
  let gen =
    QCheck.Gen.(
      let* len = int_range 0 5 in
      let* path = array_size (return len) (int_range 1 50) in
      let* lpref = int_range 50 150 in
      let* med = int_range 0 200 in
      let* igp = int_range 0 50 in
      let* from_ip = int_range 1 1000 in
      let* ebgp = bool in
      return
        (route ~path ~lpref ~med ~igp ~from_ip
           ~learned:(if ebgp then R.From_ebgp else R.From_ibgp)
           ()))
  in
  QCheck.make gen

let prop_select_is_minimum =
  (* The engine's pairwise-comparison fold and the elimination-based
     select must agree. *)
  QCheck.Test.make ~name:"select = min by compare_routes" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) arb_route)
    (fun candidates ->
      let by_select = D.select D.full_steps candidates in
      let by_fold =
        List.fold_left
          (fun acc r ->
            match acc with
            | None -> Some r
            | Some b -> if D.compare_routes D.full_steps r b < 0 then Some r else Some b)
          None candidates
      in
      match (by_select, by_fold) with
      | Some a, Some b -> D.compare_routes D.full_steps a b = 0
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_selected_never_dominated =
  QCheck.Test.make ~name:"selected route dominates all" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) arb_route)
    (fun candidates ->
      match D.select D.full_steps candidates with
      | None -> false
      | Some best ->
          List.for_all
            (fun r -> D.compare_routes D.full_steps best r <= 0)
            candidates)

(* Narrow value ranges, so that pairs tie on several steps and the
   comparator walks deep into its chain. *)
let arb_tied_pair =
  let route_gen =
    QCheck.Gen.(
      let* len = int_range 0 3 in
      let* path = array_size (return len) (int_range 1 3) in
      let* lpref = oneofl [ 90; 100; 110 ] in
      let* med = int_range 0 2 in
      let* igp = int_range 0 2 in
      let* from_ip = int_range 1 3 in
      let* learned = oneofl [ R.Originated; R.From_ebgp; R.From_ibgp ] in
      return (route ~path ~lpref ~med ~igp ~from_ip ~learned ()))
  in
  let all_steps =
    [ D.Local_pref; D.Path_length; D.Med; D.Prefer_ebgp; D.Igp_cost; D.Lowest_ip ]
  in
  let steps_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return D.model_steps);
          (1, return D.full_steps);
          (2, list_size (int_range 0 8) (oneofl all_steps));
        ])
  in
  QCheck.make
    ~print:(fun (steps, a, b) ->
      let show (r : R.t) =
        Printf.sprintf "{len=%d lpref=%d med=%d igp=%d ip=%d}"
          (Array.length r.R.path) r.R.lpref r.R.med r.R.igp r.R.from_ip
      in
      Printf.sprintf "[%s] %s %s"
        (String.concat "; " (List.map D.step_to_string steps))
        (show a) (show b))
    QCheck.Gen.(triple steps_gen route_gen route_gen)

let prop_comparator_is_compare_routes =
  QCheck.Test.make ~name:"comparator = compare_routes" ~count:1000
    arb_tied_pair (fun (steps, a, b) ->
      let cmp = D.comparator steps in
      cmp a b = D.compare_routes steps a b
      && cmp b a = D.compare_routes steps b a)

(* The slot forms of the order agree with [compare_routes] over the
   routes the slots stand for. *)
let prop_slot_comparators =
  QCheck.Test.make ~name:"slot comparators = compare_routes" ~count:1000
    arb_tied_pair (fun (steps, a, b) ->
      let sessions, imps = slots_of [| a; b |] in
      let cmp_slots = D.slot_comparator steps sessions
      and cmp_slot = D.slot_route_comparator steps sessions in
      cmp_slots imps.(0) 0 imps.(1) 1 = D.compare_routes steps a b
      && cmp_slots imps.(1) 1 imps.(0) 0 = D.compare_routes steps b a
      && cmp_slot imps.(0) 0 b = D.compare_routes steps a b
      && cmp_slot imps.(1) 1 a = D.compare_routes steps b a)

(* [select_slots] picks the candidate [select] picks, the originated
   route (id -1) included, under either MED scope. *)
let prop_select_slots =
  QCheck.Test.make ~name:"select_slots = select" ~count:300
    QCheck.(pair bool (list_of_size (QCheck.Gen.int_range 1 8) arb_route))
    (fun (originates, learned) ->
      let own_ip = 500 in
      let cands =
        (if originates then [ R.originated ~own_ip ] else []) @ learned
      in
      let sessions, imps = slots_of (Array.of_list learned) in
      let m = List.length cands in
      List.for_all
        (fun med_scope ->
          let ids = Array.init m (fun i -> if originates then i - 1 else i) in
          let w =
            D.select_slots ~med_scope D.full_steps sessions ~own_ip imps
              ~shift:0 ~ids ~keys:(Array.make m 0) m
          in
          let picked = List.nth cands (if originates then w + 1 else w) in
          match D.select ~med_scope D.full_steps cands with
          | Some r -> r == picked
          | None -> false)
        [ D.Always_compare; D.Same_neighbor ])

let words f = snd (Obs.Metrics.allocated_words f)

(* The engine calls these once per candidate, per decision or per
   import, so none may allocate: 10,000 calls must cost 0 words. *)
let per_event_calls_allocate_nothing () =
  let a = route ~path:[| 2; 3; 6 |] ~from_ip:7 ~learned:R.From_ibgp () in
  let b = route ~path:[| 2; 3; 6 |] ~from_ip:9 ~learned:R.From_ibgp () in
  List.iter
    (fun (label, steps) ->
      let cmp = D.comparator steps in
      Alcotest.(check int)
        (label ^ " comparator sign")
        (D.compare_routes steps a b) (cmp a b);
      Alcotest.(check int)
        (label ^ " comparator allocates nothing")
        0
        (words (fun () ->
           for _ = 1 to 10_000 do
             ignore (cmp a b)
           done)))
    [ ("model steps", D.model_steps); ("full steps", D.full_steps) ];
  (* The scoped-MED selection runs in place over caller buffers. *)
  let c = route ~path:[| 2; 3; 6 |] ~med:0 ~from_ip:8 () in
  let cands = [| a; b; c |] in
  let sessions, imps = slots_of cands in
  let ids = Array.make 3 0 and keys = Array.make 3 0 in
  let select () =
    for i = 0 to 2 do
      ids.(i) <- i
    done;
    D.select_slots ~med_scope:D.Same_neighbor D.full_steps sessions ~own_ip:0
      imps ~shift:0 ~ids ~keys 3
  in
  check_bool "select_slots = select" true
    (D.select ~med_scope:D.Same_neighbor D.full_steps (Array.to_list cands)
    = Some cands.(select ()));
  Alcotest.(check int) "select_slots allocates nothing" 0
    (words (fun () ->
       for _ = 1 to 10_000 do
         ignore (select ())
       done));
  let cmp_slots = D.slot_comparator D.full_steps sessions
  and cmp_slot = D.slot_route_comparator D.full_steps sessions in
  Alcotest.(check int) "slot comparators allocate nothing" 0
    (words (fun () ->
       for _ = 1 to 10_000 do
         ignore (cmp_slots imps.(0) 0 imps.(1) 1);
         ignore (cmp_slot imps.(0) 0 b)
       done));
  (* Equal contents in distinct arrays: the element loop, not the
     physical check, decides. *)
  let p1 = Array.init 12 (fun i -> i) and p2 = Array.init 12 (fun i -> i) in
  check_bool "distinct arrays" true (p1 != p2);
  check_bool "same_path sees equal contents" true (R.same_path p1 p2);
  check_bool "same_path sees a difference" false
    (R.same_path p1 (Array.init 12 (fun i -> if i = 11 then 0 else i)));
  Alcotest.(check int) "same_path allocates nothing" 0
    (words (fun () ->
       for _ = 1 to 10_000 do
         ignore (R.same_path p1 p2)
       done))

(* The engine prepends on every best-route change; re-exporting a route
   it has prepended before is a memo hit and must allocate nothing.
   [Intern] tables are per domain, so the warm-up and the counted
   calls run in this one. *)
let prepend_hit_allocates_nothing () =
  let t = Simulator.Intern.tables (Simulator.Intern.scope ()) in
  let p = [| 2; 3; 6 |] in
  let q = Simulator.Intern.prepend t ~own_as:7 p in
  check_bool "prepend" true (q = [| 7; 2; 3; 6 |]);
  check_bool "hit returns the memoized array" true
    (Simulator.Intern.prepend t ~own_as:7 p == q);
  (* An equal path in another array hits too, through the structural
     comparison. *)
  check_bool "structural hit" true
    (Simulator.Intern.prepend t ~own_as:7 [| 2; 3; 6 |] == q);
  check_bool "another AS misses" true
    (Simulator.Intern.prepend t ~own_as:8 p != q);
  Alcotest.(check int) "prepend hit allocates nothing" 0
    (words (fun () ->
       for _ = 1 to 10_000 do
         ignore (Simulator.Intern.prepend t ~own_as:7 p)
       done))

let suite =
  [
    Alcotest.test_case "local-pref wins" `Quick local_pref_wins;
    Alcotest.test_case "path length wins" `Quick path_length_wins;
    Alcotest.test_case "med always compared" `Quick med_always_compared;
    Alcotest.test_case "med scoped to neighbour" `Quick med_scoped_to_neighbor;
    Alcotest.test_case "med scope survivors" `Quick med_scope_survivors;
    Alcotest.test_case "med scope classify" `Quick med_scope_classify;
    Alcotest.test_case "tie-break: lowest ip" `Quick tie_break_lowest_ip;
    Alcotest.test_case "ebgp/igp steps" `Quick ebgp_and_igp_steps;
    Alcotest.test_case "empty and single" `Quick empty_and_single;
    Alcotest.test_case "originated beats learned" `Quick originated_beats_learned;
    Alcotest.test_case "classify verdicts" `Quick classify_verdicts;
    QCheck_alcotest.to_alcotest prop_select_is_minimum;
    QCheck_alcotest.to_alcotest prop_selected_never_dominated;
    QCheck_alcotest.to_alcotest prop_comparator_is_compare_routes;
    QCheck_alcotest.to_alcotest prop_slot_comparators;
    QCheck_alcotest.to_alcotest prop_select_slots;
    Alcotest.test_case "per-event decision calls allocate nothing" `Quick
      per_event_calls_allocate_nothing;
    Alcotest.test_case "prepend hit allocates nothing" `Quick
      prepend_hit_allocates_nothing;
  ]
