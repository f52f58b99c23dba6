(* The per-prefix policy store and the engine's per-domain scratch.

   A differential test drives seeded random policy edits and node
   duplications and checks, after every step, that the flat engine
   (which reads the store per prefix) agrees with the frozen reference
   engine (which reads it per (node, session, prefix)), that the folds
   and counts agree with the accessors, and that cleared rules vanish
   from the per-prefix iteration.  A threaded test checks that runs
   sharing one domain's scratch arrays never see each other's data. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine

(* A ground-truth world (route reflection, scoped MED).  Its IGP
   function only knows the generated routers, so it is replaced by one
   defined for every node id, duplicates included. *)
let world ?(conf = Netgen.Conf.tiny) seed =
  let w = Netgen.Groundtruth.build { conf with Netgen.Conf.seed = seed } in
  Net.set_igp_cost w.Netgen.Groundtruth.net (fun a b -> abs (a - b) mod 7);
  w

(* Every rule reachable through the per-(node, session, prefix)
   accessors, over a prefix universe that covers every rule placed. *)
let accessor_rules net universe =
  let denies = ref [] and meds = ref [] and lprefs = ref [] in
  for n = Net.node_count net - 1 downto 0 do
    for s = Net.session_count_of net n - 1 downto 0 do
      List.iter
        (fun p ->
          if Net.export_denied net n s p then denies := (n, s, p) :: !denies;
          Option.iter
            (fun v -> meds := (n, s, p, v) :: !meds)
            (Net.import_med net n s p);
          Option.iter
            (fun v -> lprefs := (n, s, p, v) :: !lprefs)
            (Net.import_lpref_for net n s p))
        universe
    done
  done;
  let sort l = List.sort compare l in
  (sort !denies, sort !meds, sort !lprefs)

let ascending cmp l =
  let rec go = function
    | a :: (b :: _ as tl) -> cmp a b < 0 && go tl
    | _ -> true
  in
  go l

let key4 (n, s, p, _) = (n, s, p)

let cmp_key (n1, s1, p1) (n2, s2, p2) =
  match compare (n1, s1) (n2, s2) with 0 -> Prefix.compare p1 p2 | c -> c

let check_store net universe step =
  let ctx what = Printf.sprintf "step %d: %s" step what in
  let denies, meds, lprefs = accessor_rules net universe in
  let f_denies =
    List.rev (Net.fold_export_denies net (fun n s p acc -> (n, s, p) :: acc) [])
  in
  let f_meds =
    List.rev
      (Net.fold_import_meds net (fun n s p v acc -> (n, s, p, v) :: acc) [])
  in
  let f_lprefs =
    List.rev
      (Net.fold_import_lprefs net (fun n s p v acc -> (n, s, p, v) :: acc) [])
  in
  Alcotest.(check bool)
    (ctx "folds in (node, session, prefix) order")
    true
    (ascending cmp_key f_denies
    && ascending (fun a b -> cmp_key (key4 a) (key4 b)) f_meds
    && ascending (fun a b -> cmp_key (key4 a) (key4 b)) f_lprefs);
  Alcotest.(check bool)
    (ctx "deny fold = accessors") true
    (List.sort compare f_denies = denies);
  Alcotest.(check bool)
    (ctx "med fold = accessors") true
    (List.sort compare f_meds = meds);
  Alcotest.(check bool)
    (ctx "lpref fold = accessors") true
    (List.sort compare f_lprefs = lprefs);
  Alcotest.(check (pair int int))
    (ctx "count_policies = accessors")
    (List.length denies, List.length meds)
    (Net.count_policies net);
  (* Per-prefix iteration yields exactly the half-sessions that still
     carry a rule, with the accessors' values. *)
  List.iter
    (fun p ->
      let seen = ref [] in
      Net.iter_prefix_policies net p (fun n s ~deny ~med ~lpref ->
          seen := (n, s, deny, med, lpref) :: !seen);
      let expected = ref [] in
      for n = Net.node_count net - 1 downto 0 do
        for s = Net.session_count_of net n - 1 downto 0 do
          let deny = Net.export_denied net n s p in
          let med = Option.value ~default:min_int (Net.import_med net n s p) in
          let lpref =
            Option.value ~default:min_int (Net.import_lpref_for net n s p)
          in
          if deny || med <> min_int || lpref <> min_int then
            expected := (n, s, deny, med, lpref) :: !expected
        done
      done;
      Alcotest.(check bool)
        (ctx (Format.asprintf "iteration of %a = live rules" Prefix.pp p))
        true
        (List.sort compare !seen = !expected))
    universe

(* Cold and warm runs of both engines on each tracked prefix; the warm
   run resumes from the previous step's state, across a duplication
   too. *)
let check_engines net tracked prev step =
  List.iteri
    (fun i (p, anchors) ->
      let ctx what = Format.asprintf "step %d, %a: %s" step Prefix.pp p what in
      let rc = Engine_reference.simulate net ~prefix:p ~originators:anchors in
      let fc = Engine.simulate net ~prefix:p ~originators:anchors in
      Alcotest.(check int)
        (ctx "cold fingerprint")
        (Engine_reference.state_fingerprint rc)
        (Engine.state_fingerprint fc);
      Alcotest.(check int)
        (ctx "cold events") (Engine_reference.events rc) (Engine.events fc);
      let rw, fw =
        match prev.(i) with
        | None -> (rc, fc)
        | Some (rprev, fprev) ->
            ( Engine_reference.simulate net ~from:rprev ~prefix:p
                ~originators:anchors,
              Engine.simulate net ~from:fprev ~prefix:p ~originators:anchors )
      in
      Alcotest.(check int)
        (ctx "warm fingerprint")
        (Engine_reference.state_fingerprint rw)
        (Engine.state_fingerprint fw);
      Alcotest.(check int)
        (ctx "warm events") (Engine_reference.events rw) (Engine.events fw);
      Alcotest.(check int)
        (ctx "warm = cold routing state")
        (Engine.state_fingerprint fc)
        (Engine.state_fingerprint fw);
      Net.clear_touched net p;
      prev.(i) <- Some (rw, fw))
    tracked

let random_edit rng net prefixes =
  let nodes = Net.node_count net in
  let rec pick_session () =
    let n = Random.State.int rng nodes in
    let k = Net.session_count_of net n in
    if k = 0 then pick_session () else (n, Random.State.int rng k)
  in
  let n, s = pick_session () in
  let p = prefixes.(Random.State.int rng (Array.length prefixes)) in
  match Random.State.int rng 12 with
  | 0 | 1 -> Net.set_import_med net n s p (Random.State.int rng 3)
  | 2 | 3 -> Net.clear_import_med net n s p
  | 4 -> Net.set_import_lpref_for net n s p (90 + Random.State.int rng 30)
  | 5 | 6 -> Net.clear_import_lpref_for net n s p
  | 7 | 8 -> Net.deny_export net n s p
  | 9 | 10 -> Net.allow_export net n s p
  | _ ->
      (* Re-clear a rule that may already be gone: a no-op edit must
         leave no empty entry behind. *)
      Net.allow_export net n s p;
      Net.clear_import_med net n s p;
      Net.clear_import_lpref_for net n s p

let differential seed () =
  let w = world seed in
  let net = w.Netgen.Groundtruth.net in
  let plan = w.Netgen.Groundtruth.prefix_plan in
  let tracked =
    List.filteri (fun i _ -> i mod (max 1 (List.length plan / 3)) = 0) plan
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (p, _asn, anchors) -> (p, anchors))
  in
  let prefixes = Array.of_list (List.map fst tracked) in
  let universe = List.map (fun (p, _, _) -> p) plan in
  let rng = Random.State.make [| seed |] in
  let prev = Array.make (List.length tracked) None in
  check_store net universe 0;
  check_engines net tracked prev 0;
  for step = 1 to 24 do
    random_edit rng net prefixes;
    if step mod 3 = 0 then random_edit rng net prefixes;
    (* Duplicate a node that carries rules, so the copies are exercised. *)
    if step mod 8 = 0 then begin
      let carriers =
        Net.fold_export_denies net (fun n _ _ acc -> n :: acc) []
        @ Net.fold_import_meds net (fun n _ _ _ acc -> n :: acc) []
      in
      let n = List.nth carriers (Random.State.int rng (List.length carriers)) in
      ignore (Net.duplicate_node net n)
    end;
    check_store net universe step;
    check_engines net tracked prev step
  done

(* [duplicate_node] copies every rule on the mirrored half-sessions and
   nothing else: the store grows by exactly the copied entries. *)
let duplicate_copies_store () =
  let w = world 5 in
  let net = w.Netgen.Groundtruth.net in
  let p, _, _ = List.hd w.Netgen.Groundtruth.prefix_plan in
  let n =
    let rec find u =
      if Net.session_count_of net u > 1 then u else find (u + 1)
    in
    find 0
  in
  let peer = Net.session_peer net n 0 in
  let back = Net.session_reverse net n 0 in
  Net.deny_export net n 0 p;
  Net.set_import_med net n 1 p 3;
  Net.set_import_lpref_for net peer back p 111;
  let rules () =
    let c = ref 0 in
    Net.iter_prefix_policies net p (fun _ _ ~deny:_ ~med:_ ~lpref:_ -> incr c);
    !c
  in
  let before = rules () in
  let d = Net.duplicate_node net n in
  Alcotest.(check int) "three entries copied" (before + 3) (rules ());
  Alcotest.(check bool) "own deny" true (Net.export_denied net d 0 p);
  Alcotest.(check (option int)) "own med" (Some 3) (Net.import_med net d 1 p);
  let back' = Option.get (Net.find_session net peer d) in
  Alcotest.(check (option int))
    "peer-side lpref" (Some 111)
    (Net.import_lpref_for net peer back' p)

(* Two systhreads share one domain and so one scratch cell.  Each
   simulates its own net — one with at least 4x the other's slots —
   yielding inside runs so the threads interleave mid-run.  Every state
   must equal the one a sequential run produced. *)
let scratch_reuse_threads () =
  let small = world 3 in
  let big = world ~conf:(Netgen.Conf.sized 200) 4 in
  let slots w = Net.session_count w.Netgen.Groundtruth.net in
  Alcotest.(check bool)
    (Printf.sprintf "slot ratio %d / %d >= 4" (slots big) (slots small))
    true
    (slots big >= 4 * slots small);
  (* Rules on both nets, so stale scratch from either would show. *)
  let decorate w seed =
    let net = w.Netgen.Groundtruth.net in
    let rng = Random.State.make [| seed |] in
    let prefixes =
      Array.of_list
        (List.map (fun (p, _, _) -> p) w.Netgen.Groundtruth.prefix_plan)
    in
    for _ = 1 to 60 do
      random_edit rng net prefixes
    done;
    List.iter (fun p -> Net.clear_touched net p) (Array.to_list prefixes)
  in
  decorate small 11;
  decorate big 12;
  let jobs w =
    let plan = w.Netgen.Groundtruth.prefix_plan in
    List.filteri (fun i _ -> i < 8) plan
    |> List.map (fun (p, _, anchors) -> (p, anchors))
  in
  let run ?on_best_change w (p, anchors) =
    Engine.state_fingerprint
      (Engine.simulate ?on_best_change w.Netgen.Groundtruth.net ~prefix:p
         ~originators:anchors)
  in
  let expected w = List.map (run w) (jobs w) in
  let want_small = expected small and want_big = expected big in
  let rounds = 6 in
  let results = Array.make 2 [] in
  let worker i w () =
    let got = ref [] in
    for _ = 1 to rounds do
      let yields = ref 0 in
      let on_best_change _ _ =
        incr yields;
        if !yields mod 7 = 0 then Thread.yield ()
      in
      got := List.map (run ~on_best_change w) (jobs w) :: !got;
      Thread.yield ()
    done;
    results.(i) <- !got
  in
  let t0 = Thread.create (worker 0 small) () in
  let t1 = Thread.create (worker 1 big) () in
  Thread.join t0;
  Thread.join t1;
  Alcotest.(check int) "small rounds" rounds (List.length results.(0));
  Alcotest.(check int) "big rounds" rounds (List.length results.(1));
  List.iter
    (fun got -> Alcotest.(check (list int)) "small net states" want_small got)
    results.(0);
  List.iter
    (fun got -> Alcotest.(check (list int)) "big net states" want_big got)
    results.(1)

let suite =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "store = reference under random edits (seed %d)" seed)
        `Quick (differential seed))
    [ 1; 2; 3 ]
  @ [
      Alcotest.test_case "duplicate_node copies store entries" `Quick
        duplicate_copies_store;
      Alcotest.test_case "scratch reuse across threads of one domain" `Quick
        scratch_reuse_threads;
    ]
