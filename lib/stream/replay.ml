open Bgp
module Engine = Simulator.Engine
module Net = Simulator.Net
module Warm = Simulator.Warm
module Qrmodel = Asmodel.Qrmodel
module Whatif = Asmodel.Whatif
module Asgraph = Topology.Asgraph

type cls =
  | Cannounce
  | Cwithdraw
  | Csession
  | Clink
  | Chijack_sub
  | Chijack_moas

let cls_name = function
  | Cannounce -> "announce"
  | Cwithdraw -> "withdraw"
  | Csession -> "session"
  | Clink -> "link"
  | Chijack_sub -> "hijack_sub"
  | Chijack_moas -> "hijack_moas"

let cls_rank = function
  | Cannounce -> 0
  | Cwithdraw -> 1
  | Csession -> 2
  | Clink -> 3
  | Chijack_sub -> 4
  | Chijack_moas -> 5

(* -- metrics ------------------------------------------------------- *)

let events_m = Obs.Metrics.counter "stream.events"

let reconv_m = Obs.Metrics.counter "stream.reconvergences"

let quarantined_m = Obs.Metrics.counter "stream.quarantined"

let recovered_m = Obs.Metrics.counter "stream.recovered"

let shifts_m = Obs.Metrics.counter "stream.path_shifts"

let polluted_m = Obs.Metrics.counter "stream.polluted_ases"

let event_us_m = Obs.Metrics.histogram "stream.event_us"

let quarantine_g = Obs.Metrics.gauge "stream.quarantine"

(* Registration is idempotent, so per-class series can be fetched on
   demand by their stable dotted names. *)
let cls_events_m c = Obs.Metrics.counter ("stream." ^ cls_name c ^ ".events")

let cls_engine_m c =
  Obs.Metrics.counter ("stream." ^ cls_name c ^ ".engine_events")

(* -- driver state -------------------------------------------------- *)

(* A down session/link: the half-sessions it silences and the denies
   this driver placed there (pre-existing denies — refiner filters, an
   overlapping down — are never recorded, so restore is exact and
   overlapping downs compose). *)
type down = {
  halfs : (int * int) list;
  mutable added : (int * int * Prefix.t) list;
}

type down_key = Ksession of Asn.t * Asn.t | Klink of Asn.t * Asn.t

(* Export-policy mutations this driver applied to the shared net, most
   recent first — the undo log a failed replay is reverse-applied from. *)
type jmut = Jdeny of int * int * Prefix.t | Jallow of int * int * Prefix.t

(* Driver state that must outlive the driver: a serve snapshot carries
   it so the next [create ~resume] picks up where the previous apply
   stream stopped — without it a Session_up / Link_restore / Hijack_end
   arriving in a later apply call would be a silent no-op. *)
type persist = {
  p_tracked : Prefix.t list;  (* tracking order *)
  p_origins : (Prefix.t * Asn.t list) list;
  p_downs : (down_key * (int * int) list * (int * int * Prefix.t) list) list;
}

type class_stats = {
  cs_events : int;
  cs_prefixes : int;
  cs_engine_events : int;
  cs_warm : int;
  cs_cold : int;
  cs_ases_shifted : int;
  cs_polluted : int;
  cs_wall_s : float;
}

type t = {
  model : Qrmodel.t;
  o_journal : string;
      (* probe-object name of the journal/driver tables: under
         RD_CHECK=on every journal mutation is recorded, so a driver
         shared across domains without ordering is a race finding *)
  states : Warm.table;
      (* the latest state of every tracked prefix that has one; a prefix
         is quarantined when it holds no converged state here *)
  origins : Asn.Set.t Prefix.Table.t;
  mutable tracked_rev : Prefix.t list;
  downs : (down_key, down) Hashtbl.t;
  mutable journal : jmut list;
  totals : (cls, class_stats) Hashtbl.t;
  mutable events_applied : int;
  mutable reconvergences : int;
  mutable retried : int;
  mutable failed : int;
  mutable divergences : int;
  mutable recovered_n : int;
  mutable wall_s : float;
}

let tracked t = List.rev t.tracked_rev

let quarantined t =
  List.rev (List.filter (Warm.quarantined t.states) t.tracked_rev)

let converged_state t p =
  match Hashtbl.find_opt t.states p with
  | Some st when Engine.converged st -> Some st
  | Some _ | None -> None

let origins t p =
  match Prefix.Table.find_opt t.origins p with
  | None -> []
  | Some ases -> Asn.Set.elements ases

let states t =
  List.filter_map
    (fun p -> Option.map (fun st -> (p, st)) (converged_state t p))
    (tracked t)

let fingerprint t =
  (* Sorted prefix order, so the hash is a function of the routing
     content alone, not of tracking history. *)
  List.sort Prefix.compare (tracked t)
  |> List.fold_left
       (fun h p ->
         let s =
           match converged_state t p with
           | Some st -> Engine.state_fingerprint st
           | None -> 0
         in
         ((h * 1000003) lxor Prefix.hash p * 0x9e3779b9) lxor (s land max_int))
       0x42

let originator_nodes t p =
  let net = t.model.Qrmodel.net in
  match Prefix.Table.find_opt t.origins p with
  | None -> []
  | Some ases ->
      Asn.Set.elements ases |> List.concat_map (Net.nodes_of_as net)

(* -- sessions ------------------------------------------------------ *)

(* One session = the first quasi-router adjacency (deterministic:
   lowest node ids first), both directions. *)
let session_halfs net a b =
  match Whatif.sessions_between net a b with
  | [] -> []
  | (n, s) :: _ ->
      let peer = Net.session_peer net n s in
      let rev = Net.session_reverse net n s in
      [ (n, s); (peer, rev) ]

let norm_pair a b = if a <= b then (a, b) else (b, a)

(* -- creation ------------------------------------------------------ *)

let persist t =
  let prefixes = tracked t in
  {
    p_tracked = prefixes;
    p_origins = List.map (fun p -> (p, origins t p)) prefixes;
    p_downs =
      Hashtbl.fold (fun key d acc -> (key, d.halfs, d.added) :: acc) t.downs [];
  }

let replay_uid = Atomic.make 0

let create ?states:seed ?resume (model : Qrmodel.t) =
  let net = model.Qrmodel.net in
  let t =
    {
      model;
      o_journal =
        Printf.sprintf "%s/journal#%d" (Net.probe_name net)
          (Atomic.fetch_and_add replay_uid 1);
      states = Hashtbl.create 64;
      origins = Prefix.Table.create 64;
      tracked_rev = [];
      downs = Hashtbl.create 8;
      journal = [];
      totals = Hashtbl.create 8;
      events_applied = 0;
      reconvergences = 0;
      retried = 0;
      failed = 0;
      divergences = 0;
      recovered_n = 0;
      wall_s = 0.;
    }
  in
  (match resume with
  | Some prev ->
      (* Pick up a previous driver's tracking/origin/down state; the
         down records are copied so this driver's mutations never leak
         into the snapshot the persist is still published in.  A
         tracked prefix the seed states leave out (the previous
         driver's quarantine) holds no state, so it stays
         quarantined. *)
      t.tracked_rev <- List.rev prev.p_tracked;
      List.iter
        (fun (p, ases) ->
          Prefix.Table.replace t.origins p (Asn.Set.of_list ases))
        prev.p_origins;
      List.iter
        (fun (key, halfs, added) ->
          Hashtbl.replace t.downs key { halfs; added })
        prev.p_downs
  | None ->
      List.iter
        (fun (p, asn) ->
          t.tracked_rev <- p :: t.tracked_rev;
          Prefix.Table.replace t.origins p (Asn.Set.singleton asn))
        model.Qrmodel.prefixes);
  (match seed with
  | Some states ->
      let known =
        List.fold_left
          (fun s p -> Prefix.Set.add p s)
          Prefix.Set.empty (tracked t)
      in
      List.iter
        (fun (p, st) ->
          if not (Prefix.Set.mem p known) then begin
            (* An extra (announced / hijacked) prefix carried over from
               a previous replay: recover its originators from the
               state itself. *)
            t.tracked_rev <- p :: t.tracked_rev;
            let ases =
              Engine.originating st
              |> List.fold_left
                   (fun s n -> Asn.Set.add (Net.asn_of net n) s)
                   Asn.Set.empty
            in
            Prefix.Table.replace t.origins p ases
          end;
          Hashtbl.replace t.states p st)
        states
  | None ->
      let b =
        Warm.converge t.states net ~originators:(originator_nodes t)
          (List.map fst model.Qrmodel.prefixes)
      in
      t.retried <- t.retried + b.Warm.pool.retried;
      t.failed <- t.failed + b.Warm.pool.failed);
  Obs.Metrics.set_gauge quarantine_g (List.length (quarantined t));
  t

(* -- event application --------------------------------------------- *)

let dedup_prefixes ps =
  let seen = Prefix.Table.create (List.length ps) in
  List.filter
    (fun p ->
      if Prefix.Table.mem seen p then false
      else begin
        Prefix.Table.replace seen p ();
        true
      end)
    ps

(* Denies this driver placed, in placement order, go on the undo log
   most recent first. *)
let journal_denies t placed =
  List.iter (fun (n, s, p) -> t.journal <- Jdeny (n, s, p) :: t.journal) placed

(* A prefix first seen while sessions are down must be silenced on them
   too, or routes would leak through a failed link. *)
let extend_downs t p =
  let net = t.model.Qrmodel.net in
  Obs.Probe.write ~obj:t.o_journal ~site:"replay.journal";
  Hashtbl.iter
    (fun _ d ->
      let placed = Whatif.deny_fresh net d.halfs [ p ] in
      journal_denies t placed;
      d.added <- List.rev_append placed d.added)
    t.downs

let add_origin t p asn =
  match Prefix.Table.find_opt t.origins p with
  | Some ases when Asn.Set.mem asn ases -> [] (* duplicate announce *)
  | Some ases ->
      Prefix.Table.replace t.origins p (Asn.Set.add asn ases);
      [ p ]
  | None ->
      t.tracked_rev <- p :: t.tracked_rev;
      Prefix.Table.replace t.origins p (Asn.Set.singleton asn);
      extend_downs t p;
      [ p ]

let remove_origin t p asn =
  match Prefix.Table.find_opt t.origins p with
  | Some ases when Asn.Set.mem asn ases ->
      (* The prefix stays tracked even when fully withdrawn: its state
         reconverges to route-free, and a later announce revives it. *)
      Prefix.Table.replace t.origins p (Asn.Set.remove asn ases);
      [ p ]
  | _ -> [] (* withdraw of something never announced: no-op *)

let bring_down t key halfs =
  if Hashtbl.mem t.downs key || halfs = [] then []
  else begin
    Obs.Probe.write ~obj:t.o_journal ~site:"replay.journal";
    let placed = Whatif.deny_fresh t.model.Qrmodel.net halfs (tracked t) in
    journal_denies t placed;
    let d = { halfs; added = List.rev placed } in
    Hashtbl.replace t.downs key d;
    dedup_prefixes (List.map (fun (_, _, p) -> p) d.added)
  end

let bring_up t key =
  match Hashtbl.find_opt t.downs key with
  | None -> [] (* restore of something not down: no-op *)
  | Some d ->
      let net = t.model.Qrmodel.net in
      Obs.Probe.write ~obj:t.o_journal ~site:"replay.journal";
      List.iter
        (fun (n, s, p) ->
          Net.allow_export net n s p;
          t.journal <- Jallow (n, s, p) :: t.journal)
        d.added;
      Hashtbl.remove t.downs key;
      dedup_prefixes (List.map (fun (_, _, p) -> p) d.added)

let no_stats =
  {
    cs_events = 0;
    cs_prefixes = 0;
    cs_engine_events = 0;
    cs_warm = 0;
    cs_cold = 0;
    cs_ases_shifted = 0;
    cs_polluted = 0;
    cs_wall_s = 0.;
  }

let pollution t p attacker =
  let net = t.model.Qrmodel.net in
  match converged_state t p with
  | None -> 0
  | Some st ->
      List.length
        (List.filter
           (fun asn ->
             asn <> attacker
             && List.exists
                  (fun path ->
                    let k = Array.length path in
                    k > 0 && path.(k - 1) = attacker)
                  (Engine.selected_paths net st asn))
           (Asgraph.nodes t.model.Qrmodel.graph))

(* Reconverge a deduplicated prefix batch, count the path shifts
   against the converged states it replaces, and report the prefixes
   that entered or left quarantine.  [stuck] is the whole quarantine
   before the event, all of it in the batch: a prefix the event
   announced has no state yet either, but it was never quarantined.
   Returns (engine_events, warm, cold, shifted, quarantined,
   recovered). *)
let reconverge t ~stuck batch =
  if batch = [] then (0, 0, 0, 0, [], [])
  else begin
    let net = t.model.Qrmodel.net in
    let before = List.map (converged_state t) batch in
    let b =
      Warm.converge t.states net ~originators:(originator_nodes t) batch
    in
    t.retried <- t.retried + b.Warm.pool.retried;
    t.failed <- t.failed + b.Warm.pool.failed;
    t.divergences <- t.divergences + b.Warm.divergences;
    t.reconvergences <- t.reconvergences + List.length batch;
    Obs.Metrics.incr ~by:(List.length batch) reconv_m;
    let shifted =
      List.fold_left2
        (fun n p before ->
          match converged_state t p with
          | Some st -> n + List.length (fst (Whatif.changed_ases net before st))
          | None -> n)
        0 batch before
    in
    let now_stuck = Warm.quarantined t.states in
    let was = Prefix.Set.of_list stuck in
    let was_stuck p = Prefix.Set.mem p was in
    let recovered =
      List.filter (fun p -> was_stuck p && not (now_stuck p)) batch
    and newly = List.filter (fun p -> now_stuck p && not (was_stuck p)) batch in
    t.recovered_n <- t.recovered_n + List.length recovered;
    Obs.Metrics.incr ~by:(List.length recovered) recovered_m;
    Obs.Metrics.incr ~by:(List.length newly) quarantined_m;
    Obs.Metrics.set_gauge quarantine_g
      (List.length stuck - List.length recovered + List.length newly);
    Obs.Metrics.incr ~by:shifted shifts_m;
    ( b.Warm.pool.events,
      b.Warm.resumed,
      b.Warm.pool.prefixes - b.Warm.resumed,
      shifted,
      newly,
      recovered )
  end

type event_report = {
  event : Event.t;
  cls : cls;
  prefixes : int;
  engine_events : int;
  warm : int;
  cold : int;
  ases_shifted : int;
  polluted : int;
  quarantined : Prefix.t list;
  recovered : Prefix.t list;
  wall_s : float;
}

let apply t (ev : Event.t) =
  let net = t.model.Qrmodel.net in
  let t0 = Obs.Trace.now_us () in
  let stuck = quarantined t in
  let cls, affected, hijack_target =
    match ev.Event.action with
    | Event.Announce { prefix; origin } ->
        (Cannounce, add_origin t prefix origin, None)
    | Event.Withdraw { prefix; origin } ->
        (Cwithdraw, remove_origin t prefix origin, None)
    | Event.Hijack { prefix; attacker } ->
        let moas =
          match Prefix.Table.find_opt t.origins prefix with
          | Some ases -> not (Asn.Set.is_empty ases)
          | None -> false
        in
        let cls = if moas then Chijack_moas else Chijack_sub in
        (cls, add_origin t prefix attacker, Some (prefix, attacker))
    | Event.Hijack_end { prefix; attacker } ->
        let affected = remove_origin t prefix attacker in
        let moas =
          match Prefix.Table.find_opt t.origins prefix with
          | Some ases -> not (Asn.Set.is_empty ases)
          | None -> false
        in
        ((if moas then Chijack_moas else Chijack_sub), affected, None)
    | Event.Session_down { a; b } ->
        let a, b = norm_pair a b in
        (Csession, bring_down t (Ksession (a, b)) (session_halfs net a b), None)
    | Event.Session_up { a; b } ->
        let a, b = norm_pair a b in
        (Csession, bring_up t (Ksession (a, b)), None)
    | Event.Link_fail { a; b } ->
        let a, b = norm_pair a b in
        ( Clink,
          bring_down t (Klink (a, b)) (Whatif.link_sessions net a b),
          None )
    | Event.Link_restore { a; b } ->
        let a, b = norm_pair a b in
        (Clink, bring_up t (Klink (a, b)), None)
  in
  (* Quarantined prefixes ride along on every event: sustained churn is
     exactly when they get their cold retries. *)
  let batch = dedup_prefixes (affected @ stuck) in
  let engine_events, warm, cold, ases_shifted, newly_q, recovered =
    reconverge t ~stuck batch
  in
  let polluted =
    match hijack_target with
    | Some (p, attacker) -> pollution t p attacker
    | None -> 0
  in
  let wall_s = float_of_int (Obs.Trace.now_us () - t0) /. 1e6 in
  t.events_applied <- t.events_applied + 1;
  t.wall_s <- t.wall_s +. wall_s;
  Obs.Metrics.incr events_m;
  Obs.Metrics.incr (cls_events_m cls);
  Obs.Metrics.incr ~by:engine_events (cls_engine_m cls);
  Obs.Metrics.incr ~by:polluted polluted_m;
  Obs.Metrics.observe event_us_m (Obs.Trace.now_us () - t0);
  let a = Option.value (Hashtbl.find_opt t.totals cls) ~default:no_stats in
  Hashtbl.replace t.totals cls
    {
      cs_events = a.cs_events + 1;
      cs_prefixes = a.cs_prefixes + List.length batch;
      cs_engine_events = a.cs_engine_events + engine_events;
      cs_warm = a.cs_warm + warm;
      cs_cold = a.cs_cold + cold;
      cs_ases_shifted = a.cs_ases_shifted + ases_shifted;
      cs_polluted = a.cs_polluted + polluted;
      cs_wall_s = a.cs_wall_s +. wall_s;
    };
  {
    event = ev;
    cls;
    prefixes = List.length batch;
    engine_events;
    warm;
    cold;
    ases_shifted;
    polluted;
    quarantined = newly_q;
    recovered;
    wall_s;
  }

let retry_quarantined t =
  match quarantined t with
  | [] -> []
  | stuck ->
      let _, _, _, _, _, recovered = reconverge t ~stuck stuck in
      recovered

let rollback_net t =
  (* Reverse-chronological undo: the journal is most-recent-first, so a
     deny placed and later lifted inside the same driver nets out. The
     driver's own tables are left inconsistent on purpose — after a
     rollback it must be discarded, only the shared net matters. *)
  let net = t.model.Qrmodel.net in
  Obs.Probe.write ~obj:t.o_journal ~site:"replay.rollback";
  List.iter
    (function
      | Jdeny (n, s, p) -> Net.allow_export net n s p
      | Jallow (n, s, p) -> Net.deny_export net n s p)
    t.journal;
  t.journal <- []

(* -- reports ------------------------------------------------------- *)

type report = {
  events : int;
  rejected : int;
  classes : (cls * class_stats) list;
  reconvergences : int;
  retried : int;
  failed : int;
  quarantine : Prefix.t list;
  recovered : int;
  divergences : int;
  wall_s : float;
}

let report t ~rejected =
  let classes =
    Hashtbl.fold (fun cls a acc -> (cls, a) :: acc) t.totals []
    |> List.sort (fun (a, _) (b, _) -> Int.compare (cls_rank a) (cls_rank b))
  in
  {
    events = t.events_applied;
    rejected;
    classes;
    reconvergences = t.reconvergences;
    retried = t.retried;
    failed = t.failed;
    quarantine = quarantined t;
    recovered = t.recovered_n;
    divergences = t.divergences;
    wall_s = t.wall_s;
  }

let run ?on_event (model : Qrmodel.t) events =
  let graph = model.Qrmodel.graph in
  let stream, rejects =
    Event.normalize ~known_as:(Asgraph.mem_node graph) events
  in
  List.iter
    (fun (ev, reason) ->
      Logs.debug (fun m ->
          m "replay: dropping event %a (%s)" Event.pp ev reason))
    rejects;
  let t = create model in
  List.iter
    (fun ev ->
      let r = apply t ev in
      match on_event with Some f -> f r | None -> ())
    stream;
  ignore (retry_quarantined t);
  (t, report t ~rejected:(List.length rejects))

let pp_report ppf r =
  Format.fprintf ppf
    "%d events (%d rejected), %d reconvergences (%d warm / %d cold), %d \
     shifted, %d recovered, %d quarantined, %d failed, %d divergences, \
     %.2fs"
    r.events r.rejected r.reconvergences
    (List.fold_left (fun n (_, c) -> n + c.cs_warm) 0 r.classes)
    (List.fold_left (fun n (_, c) -> n + c.cs_cold) 0 r.classes)
    (List.fold_left (fun n (_, c) -> n + c.cs_ases_shifted) 0 r.classes)
    r.recovered
    (List.length r.quarantine)
    r.failed r.divergences r.wall_s
