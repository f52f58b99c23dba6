open Bgp

type outcome =
  | Converged
  | Truncated of { events : int; budget : int }
  | Diverged of { cycle_len : int }

let pp_outcome ppf = function
  | Converged -> Format.pp_print_string ppf "converged"
  | Truncated { events; budget } ->
      Format.fprintf ppf "truncated (%d events, budget %d)" events budget
  | Diverged { cycle_len } ->
      Format.fprintf ppf "diverged (cycle of %d events)" cycle_len

(* Flat-memory per-prefix state.  The RIB-In is one contiguous slab of
   import records in the CSR slot order of {!Net.Csr}: node [n]'s slots
   are [off.(n) .. off.(n+1) - 1], and an empty slot holds the physical
   sentinel {!Rattr.no_import} instead of an option box, so a cold
   run's state is two flat arrays, with no per-node arrays to chase.  A
   slot holds only what its route arrived with (path, LOCAL_PREF, MED,
   IGP cost), one record shared by every slot of an export that
   imported it alike; the rest of the route is the slot's session's,
   read from [csr], the index of the generation the state was computed
   at: slot [k] of node [p] was announced by [peer.(k)], from address
   [ips.(peer.(k))], over session [k - off.(p)], of kind [kinds.(k)] and
   class [classes.(k)] ([view]).
   A cold run, and a resume across duplications, writes a slab of its
   own.  A warm resume
   at its parent's generation shares its parent's slab and writes
   per-node rows over it: [rows] stays its parent's (the empty array
   when the parent has none) until the run's first slot write, which
   copies it (or makes one of [[||]]s); a node's entry is [[||]] while
   its slots are the slab's, and its whole row once a run in the chain
   has written one of them.  [best] is copied on its first write.  So a
   resume that changes nothing shares its parent's arrays, one that
   changes a few nodes costs their rows plus two node-sized arrays, and
   a chain of resumes holds one slab plus at most one row per node.
   The arrays are written only by the run that made the state, before
   it is returned: a returned state is never written again, except by
   [release], which ends a scoped run ({!with_cold}) and leaves the
   record reading as an empty state of generation -1. *)
type state = {
  pfx : Prefix.t;
  mutable gen : int;  (* Net.generation at run time; gates warm resumption *)
  mutable nodes : int;
  csr : Net.Csr.t;  (* the index of [gen]: every slot's session *)
  off : int array;  (* [Net.Csr.off csr]; length nodes + 1 *)
  mutable slab : Rattr.import array;  (* RIB-In slots; no_import = empty *)
  mutable rows : Rattr.import array array;  (* [||] = every slot is in [slab] *)
  mutable best : Rattr.t array;  (* per node; Rattr.no_route = no route *)
  origins : int list;  (* originating nodes, ascending, distinct *)
  mutable outcome : outcome;
  mutable events : int;
}

(* The sentinel tests, defined here so that the hot loops inline them:
   the dev build does not inline across modules. *)
let[@inline] is_import (x : Rattr.import) = x != Rattr.no_import

let[@inline] is_route (r : Rattr.t) = r != Rattr.no_route

(* Would a slot holding [x] on a session from [from_node] read as
   [Rattr.same_route] to [r]?  [x] must be a route. *)
let same_import (x : Rattr.import) from_node (r : Rattr.t) =
  is_route r && r.from_node = from_node
  && (x.path == r.path || Rattr.same_path x.path r.path)
  && x.lpref = r.lpref && x.med = r.med && x.igp = r.igp

(* Metrics are flushed once per run from locally accumulated counts —
   never touched per event — so the instrumented engine is the
   un-instrumented engine plus a handful of atomic adds at the end. *)
let runs_m = Obs.Metrics.counter "engine.runs"

let events_m = Obs.Metrics.counter "engine.events_drained"

let escalations_m = Obs.Metrics.counter "engine.budget_escalations"

let fingerprints_m = Obs.Metrics.counter "engine.watchdog_fingerprints"

let truncated_m = Obs.Metrics.counter "engine.truncated"

let diverged_m = Obs.Metrics.counter "engine.diverged"

let resume_hits_m = Obs.Metrics.counter "engine.warm_resume_hits"

let resume_misses_m = Obs.Metrics.counter "engine.warm_resume_misses"

let prefix st = st.pfx

let generation st = st.gen

let outcome st = st.outcome

let converged st = match st.outcome with Converged -> true | _ -> false

let events st = st.events

(* Nodes created after a run (the refiner's duplicates) have no state
   yet: report them as empty rather than out of bounds. *)
let best_route st n = if n >= st.nodes then Rattr.no_route else st.best.(n)

let best st n =
  let r = best_route st n in
  if is_route r then Some r else None

(* The one slot accessor: node [u]'s slots are [row st u] from index
   [row_start st u (row st u)] on, in session order. *)
let row st u =
  if Array.length st.rows = 0 then st.slab
  else
    let r = st.rows.(u) in
    if Array.length r = 0 then st.slab else r

let row_start st u r = if r == st.slab then st.off.(u) else 0

let learned_of_kind kind = if kind = 1 then Rattr.From_ibgp else Rattr.From_ebgp

(* The whole route of node [p]'s slot [k] (a slab index), which holds
   [x]: the slot's import attributes and its session's provenance, from
   the CSR arrays of the state's generation. *)
let slot_route ~peer ~ips ~kinds ~classes ~off p k (x : Rattr.import) =
  {
    Rattr.path = x.path;
    lpref = x.lpref;
    med = x.med;
    igp = x.igp;
    from_node = peer.(k);
    from_ip = ips.(peer.(k));
    from_session = k - off.(p);
    learned = learned_of_kind kinds.(k);
    learned_class = classes.(k);
  }

let view st p k x =
  let c = st.csr in
  slot_route ~peer:(Net.Csr.peer c) ~ips:(Net.Csr.ips c)
    ~kinds:(Net.Csr.kinds c) ~classes:(Net.Csr.classes c) ~off:st.off p k x

(* [f s x] for every route [x] in node [n]'s slots, [s] its session
   index, in session order. *)
let iter_slots st n f =
  if n < st.nodes then begin
    let r = row st n in
    let base = row_start st n r in
    for s = 0 to st.off.(n + 1) - st.off.(n) - 1 do
      let x = r.(base + s) in
      if is_import x then f s x
    done
  end

let rib_in st n =
  let acc = ref [] in
  iter_slots st n (fun s x -> acc := (s, view st n (st.off.(n) + s) x) :: !acc);
  List.rev !acc

let iter_rib_in_paths st n f = iter_slots st n (fun s x -> f s x.Rattr.path)

let rec int_mem (x : int) = function
  | [] -> false
  | y :: rest -> x = y || int_mem x rest

(* Candidate traversal without building a list: the originated route
   (if any) first, then the RIB-In slots in session order — exactly the
   decision-process input order. *)
let iter_candidates st net n f =
  if n < st.nodes && int_mem n st.origins then
    f (Rattr.originated ~own_ip:(Ipv4.to_int (Net.ip_of net n)));
  iter_slots st n (fun s x -> f (view st n (st.off.(n) + s) x))

let fold_candidates st net n ~init ~f =
  let acc = ref init in
  iter_candidates st net n (fun r -> acc := f !acc r);
  !acc

let candidates st net n =
  List.rev (fold_candidates st net n ~init:[] ~f:(fun acc r -> r :: acc))

(* One step of the polynomial hash every fingerprint below folds. *)
let mix h x = (h * 1000003) lxor (x land max_int)

(* [Hashtbl.hash] of the three [learned] constructors, computed once. *)
let originated_h = Hashtbl.hash Rattr.Originated

let ebgp_h = Hashtbl.hash Rattr.From_ebgp

let ibgp_h = Hashtbl.hash Rattr.From_ibgp

let empty_h = 0x5bd1e995

(* A route's fields in [Rattr.t] order, the provenance given apart so
   that a slot mixes as its [view] would without building it. *)
let mix_fields h path lpref med igp ~from_node ~from_ip ~from_session
    ~learned_h ~learned_class =
  let h = mix h (Intern.path_hash path) in
  let h = mix h lpref in
  let h = mix h med in
  let h = mix h igp in
  let h = mix h from_node in
  let h = mix h from_ip in
  let h = mix h from_session in
  let h = mix h learned_h in
  mix h (Hashtbl.hash (learned_class : int))

let mix_route h (r : Rattr.t) =
  if is_route r then
    mix_fields h r.path r.lpref r.med r.igp ~from_node:r.from_node
      ~from_ip:r.from_ip ~from_session:r.from_session
      ~learned_h:
        (match r.learned with
        | Rattr.Originated -> originated_h
        | Rattr.From_ebgp -> ebgp_h
        | Rattr.From_ibgp -> ibgp_h)
      ~learned_class:r.learned_class
  else mix h empty_h

(* The accumulator is a local ref no closure captures, so folding a
   whole state allocates nothing. *)
let mix_routes h (rs : Rattr.t array) =
  let h = ref h in
  for i = 0 to Array.length rs - 1 do
    h := mix_route !h rs.(i)
  done;
  !h

(* Every RIB-In slot, node by node in session order: the slab's linear
   order whichever rows a state has.  A slot mixes as its [view]. *)
let mix_slots h st =
  let c = st.csr in
  let peer = Net.Csr.peer c and ips = Net.Csr.ips c in
  let kinds = Net.Csr.kinds c and classes = Net.Csr.classes c in
  let h = ref h in
  for u = 0 to st.nodes - 1 do
    let r = row st u in
    let base = row_start st u r in
    let o = st.off.(u) in
    for s = 0 to st.off.(u + 1) - o - 1 do
      let x = r.(base + s) in
      h :=
        if is_import x then
          let k = o + s in
          mix_fields !h x.path x.lpref x.med x.igp ~from_node:peer.(k)
            ~from_ip:ips.(peer.(k)) ~from_session:s
            ~learned_h:(if kinds.(k) = 1 then ibgp_h else ebgp_h)
            ~learned_class:classes.(k)
        else mix !h empty_h
    done
  done;
  !h

(* A node's entry in the per-run [queued] array: [unqueued], or, while
   the node waits in the work queue, its pending candidate — the slot of
   the best route written into its slots since its last decision, or one
   of these marks. *)
let unqueued = -4

let no_pend = -2 (* queued, nothing written since the last decision *)

let pend_orig = -1 (* the originated route, gained this run *)

let rescan = -3 (* the last decision's winner may be gone: scan *)

(* Full-state fingerprint for the oscillation watchdog.  The transition
   function is deterministic, so an exact repeat of (RIBs, best routes,
   queue content and order) with work still queued proves a genuine
   cycle.  [Hashtbl.hash] alone would be unsound here — it truncates
   deep/wide structures such as long AS-paths — so every route is
   folded field by field into a polynomial hash over the full
   native-int range, with paths contributing their full-width content
   hash ({!Intern.path_hash}).  The slots are mixed in slab order,
   which is the reference engine's node-major slot order — the two
   implementations fingerprint identically by construction. *)
let fingerprint st fold_queue queued n =
  let h = mix_slots (mix_routes 0x42 st.best) st in
  let h = ref (fold_queue (fun h u -> mix h (u + 0x9e3779b9)) h) in
  for u = 0 to n - 1 do
    h := mix !h (Bool.to_int (queued.(u) <> unqueued))
  done;
  !h

(* Routing-content fingerprint (no queue): what warm-vs-cold
   verification compares.  Identical final best routes and RIB-Ins give
   identical fingerprints regardless of how the fixed point was
   reached. *)
let state_fingerprint st = mix_slots (mix_routes 0x42 st.best) st

(* [Rattr.same_route] over the views of two slots, given their
   senders. *)
let same_slot (xa : Rattr.import) from_a (xb : Rattr.import) from_b =
  if is_import xa && is_import xb then
    from_a = from_b
    && (xa == xb
       || Rattr.same_path xa.path xb.path
          && xa.lpref = xb.lpref && xa.med = xb.med && xa.igp = xb.igp)
  else xa == xb

let same_state a b =
  a.pfx = b.pfx && a.nodes = b.nodes
  && a.off = b.off
  && (let ok = ref true in
      Array.iteri
        (fun i r -> if not (Rattr.same_route r b.best.(i)) then ok := false)
        a.best;
      let pa = Net.Csr.peer a.csr and pb = Net.Csr.peer b.csr in
      for u = 0 to a.nodes - 1 do
        let ra = row a u and rb = row b u in
        let ba = row_start a u ra and bb = row_start b u rb in
        for s = 0 to a.off.(u + 1) - a.off.(u) - 1 do
          let k = a.off.(u) + s in
          if not (same_slot ra.(ba + s) pa.(k) rb.(bb + s) pb.(k)) then
            ok := false
        done
      done;
      !ok)

(* Loop detection, once per eBGP import: a plain loop, because a local
   recursive function (or [Array.exists]) would allocate a closure per
   call. *)
let path_mem (path : int array) x =
  let n = Array.length path in
  let i = ref 0 in
  while !i < n && Array.unsafe_get path !i <> x do
    incr i
  done;
  !i < n

(* The watchdog keeps at most this many fingerprints; real oscillation
   cycles are tiny (the bad gadget's is < 20 events), so a bounded
   history loses nothing while capping memory on huge budgets. *)
let watchdog_history_cap = 4096

(* Scratch of a run, sized by the net: the prefix's flattened policy
   rules per slot, the work queue and, per queued node, its pending
   candidate (which also dedups the queue), the originated route per
   node and the scoped-MED buffers.  At scale a slot-sized array goes
   straight to the major heap, so each domain
   keeps one set in a cell and a run checks it out with
   [Atomic.exchange] and hands it back clean: it writes only the slots
   of its prefix's rules and of its originators, and puts back exactly
   those (and any node it leaves queued) after the drain, so neither
   end of a run costs a pass over the net.  Systhreads share a domain
   (the query server's connection threads all run the engine), so a run
   that finds the cell empty — another thread holds the set — allocates
   its own; a run that raises simply drops its set.  A resume that
   writes rows takes a new [stamp], so the [owner] marks of earlier
   runs go stale without a reset.  Arrays may be
   longer than the current net's slot or node count: only the first
   [nslots] or [nodes] entries are used.  The cell also keeps the slab
   and best arrays of the domain's last scoped run ({!with_cold}), empty,
   for the next one to borrow. *)
type scratch = {
  deny : bool array;
  med_in : int array;  (* [min_int] = no override *)
  lpref_for : int array;  (* [min_int] = no override *)
  queue : int array;  (* ring of capacity nodes + 1 *)
  queued : int array;  (* per node: [unqueued] or the pending candidate *)
  orig : Rattr.t array;  (* per node; Rattr.no_route = not originating *)
  owner : int array;  (* per node: the [stamp] of the last run to copy its row *)
  mutable stamp : int;
  mutable med_ids : int array;
  mutable med_keys : int array;
  mutable spare_slab : Rattr.import array;  (* [||] = none, or all no_import *)
  mutable spare_best : Rattr.t array;
}

let scratch_cell = Domain.DLS.new_key (fun () -> Atomic.make None)

(* A scratch too small for the run is replaced by one at least twice
   as long in the dimension that fell short, so a net that grows a node
   at a time (quasi-router duplication) reallocates its scratch a
   logarithmic number of times, not once per duplication. *)
let grow need have = if need <= have then have else max need (2 * have)

let checkout_scratch ~nslots ~nodes =
  match Atomic.exchange (Domain.DLS.get scratch_cell) None with
  | Some sc when Array.length sc.deny >= nslots && Array.length sc.queued >= nodes
    ->
      sc
  | old ->
      let nslots, nodes =
        match old with
        | Some sc ->
            ( grow nslots (Array.length sc.deny),
              grow nodes (Array.length sc.queued) )
        | None -> (nslots, nodes)
      in
      {
        deny = Array.make nslots false;
        med_in = Array.make nslots min_int;
        lpref_for = Array.make nslots min_int;
        queue = Array.make (nodes + 1) 0;
        queued = Array.make nodes unqueued;
        orig = Array.make nodes Rattr.no_route;
        owner = Array.make nodes 0;
        stamp = 0;
        med_ids = [||];
        med_keys = [||];
        spare_slab = [||];
        spare_best = [||];
      }

let checkin_scratch sc = Atomic.set (Domain.DLS.get scratch_cell) (Some sc)

(* A scoped run's arrays: the cell's spare pair when its sizes fit the
   net exactly (a state's [best] length is part of its fingerprint),
   else new ones.  The spare pair leaves the cell, so a nested scoped
   run, or a systhread that finds the cell taken, allocates its own. *)
let borrow_arrays ~nslots ~nodes =
  let cell = Domain.DLS.get scratch_cell in
  match Atomic.exchange cell None with
  | Some sc
    when Array.length sc.spare_slab = nslots
         && Array.length sc.spare_best = nodes ->
      let slab = sc.spare_slab and best = sc.spare_best in
      sc.spare_slab <- [||];
      sc.spare_best <- [||];
      Atomic.set cell (Some sc);
      (slab, best)
  | taken ->
      if Option.is_some taken then Atomic.set cell taken;
      (Array.make nslots Rattr.no_import, Array.make nodes Rattr.no_route)

(* Node [p]'s slot [k] (a slab index), wherever its row lives. *)
let slot st p k =
  let r = row st p in
  if r == st.slab then st.slab.(k) else r.(k - st.off.(p))

(* Shared drain core: seed the queue (cold start: the originators; warm
   start: peers disturbed by replayed exports), then process nodes
   until the queue empties, the budget (after escalations) runs out, or
   the watchdog proves a cycle.  [seed ~enqueue ~replay] fills the
   initial queue, which must hold the [reseat] nodes, whose originated
   route came or went; [replay u] re-exports [u]'s current best,
   charging one event.

   The whole hot path runs on the {!Net.Csr} arrays hoisted into locals
   below: walking a node's sessions is a linear int-array scan, the
   mirror slot at the peer is one [rev] read, and the work queue is a
   ring buffer, so an event allocates only on a change: a lookup in the
   prepended-path memo when its node's best route changes, and one
   route record per RIB-In slot it changes.  [fresh] says whether
   [st]'s slab and best arrays are the run's own; when they are not (a
   warm resume at its parent's generation), the run writes per-node
   rows over the parent's slab and copies [best] on its first write.
   The run prepends through its net's memo ({!Intern.tables}), fetched
   once, so the paths it makes die with the net. *)
let exec ?max_events ?max_escalations ?on_best_change ~fresh net st ~kind
    ~reseat:reseat_nodes ~seed =
  let t0 = Obs.Trace.now_us () in
  let escalated = ref 0 in
  let fingerprinted = ref 0 in
  let n = st.nodes in
  let budget =
    match max_events with Some b -> b | None -> 1000 + (200 * n)
  in
  let budget = Faultinject.shrink_budget ~key:(Hashtbl.hash st.pfx) budget in
  (* An explicit [max_events] is a caller-chosen hard cap (tests, budget
     experiments): honour it exactly unless escalation is requested too.
     The default budget is a heuristic, so exhausting it earns ×2 and ×4
     retries before the run is declared truncated. *)
  let escalations =
    match (max_escalations, max_events) with
    | Some k, _ -> max 0 k
    | None, Some _ -> 0
    | None, None -> 2
  in
  (* One read-side probe per run: the whole drain reads the structure
     (via the CSR arrays) and the per-prefix policy tables (flattened
     below), so a mutation unordered with this run races it. *)
  Net.probe_read net ~site:"engine.exec";
  let c = Net.csr net in
  let off = Net.Csr.off c in
  let peer = Net.Csr.peer c in
  let rev = Net.Csr.rev c in
  let kinds = Net.Csr.kinds c in
  let classes = Net.Csr.classes c in
  let lprefs = Net.Csr.lprefs c in
  let carries = Net.Csr.carries c in
  let rrs = Net.Csr.rr_clients c in
  let asns = Net.Csr.asns c in
  let memo = Intern.tables (Net.intern_scope net) in
  let ips = Net.Csr.ips c in
  let igps = Net.Csr.igp_costs c in
  let export_ok = Net.Csr.export_table c in
  let cw = Net.Csr.export_width c in
  let med_default = Net.default_med net in
  (* Per-run flattening of the prefix's policy rules: the engine visits
     only the rules of the prefix it runs (each names its slot as
     [off.(node) + session]).  The net is frozen while a simulation runs
     (mutation discipline), so walking the same rules again after the
     drain puts back exactly the slots written here. *)
  let sc = checkout_scratch ~nslots:(Net.Csr.slot_count c) ~nodes:n in
  let deny = sc.deny and med_in = sc.med_in and lpref_for = sc.lpref_for in
  Net.iter_prefix_policies net st.pfx (fun u s ~deny:d ~med ~lpref ->
      let k = off.(u) + s in
      deny.(k) <- d;
      med_in.(k) <- med;
      lpref_for.(k) <- lpref);
  (* FIFO work queue as a ring over an int array: deduplicating on
     [queued] bounds occupancy at [n], so capacity [n + 1] never
     overflows and the drain loop allocates nothing per event (a
     [Queue.t] would cons one cell per push). *)
  let qcap = n + 1 in
  let qbuf = sc.queue in
  let qhead = ref 0 in
  let qtail = ref 0 in
  let queued = sc.queued in
  let enqueue u =
    if queued.(u) = unqueued then begin
      queued.(u) <- no_pend;
      qbuf.(!qtail) <- u;
      let t = !qtail + 1 in
      qtail := if t = qcap then 0 else t
    end
  in
  let queue_empty () = !qhead = !qtail in
  let dequeue () =
    let u = qbuf.(!qhead) in
    let h = !qhead + 1 in
    qhead := if h = qcap then 0 else h;
    u
  in
  (* Head-to-tail fold preserves FIFO order, so watchdog fingerprints
     match the reference engine's [Queue.iter]. *)
  let fold_queue f acc =
    let acc = ref acc in
    let i = ref !qhead in
    while !i <> !qtail do
      acc := f !acc qbuf.(!i);
      let j = !i + 1 in
      i := if j = qcap then 0 else j
    done;
    !acc
  in
  let steps = Net.decision_steps net in
  let med_scope = Net.med_scope net in
  (* Neighbour-scoped MED (RFC 4271 §9.1.2.2) is not a total order over
     candidates, so the pairwise-minimum fast path below would be wrong
     for it: run the real elimination process instead — in place over
     scratch buffers sized to the widest node. *)
  let scoped_med =
    med_scope = Decision.Same_neighbor && List.mem Decision.Med steps
  in
  let width = Net.Csr.max_degree c + 1 in
  if scoped_med && Array.length sc.med_ids < width then begin
    sc.med_ids <- Array.make width 0;
    sc.med_keys <- Array.make width 0
  end;
  let med_ids = sc.med_ids and med_keys = sc.med_keys in
  (* Three compiled forms of one preference order: between whole routes
     (an originated route against a best), between a slot and a whole
     route, and between two slots, whose session fields come from the
     CSR arrays. *)
  let sessions = { Decision.kinds; peer; ips } in
  let compare_routes = Decision.comparator steps in
  let compare_slot = Decision.slot_route_comparator steps sessions in
  let compare_slots = Decision.slot_comparator steps sessions in
  (* Originated routes are stable for the whole run: build each
     originator's once instead of allocating per decision process. *)
  let orig = sc.orig in
  List.iter (fun u -> orig.(u) <- Rattr.originated ~own_ip:ips.(u)) st.origins;
  (* A fresh run writes its own [slab].  A resume at its parent's
     generation ([patched]) writes rows over the shared slab instead:
     it copies the parent's [rows] index on its first slot write and a
     node's row on its first write to that node, from the node's
     current slots (the parent may be patched itself).  [best] is
     copied on its first write either way.  The branch on [patched] is
     a run constant, so the fresh path reads and writes the slab as if
     rows did not exist. *)
  let slab = st.slab in
  let patched = not fresh in
  let stamp =
    if patched then begin
      sc.stamp <- sc.stamp + 1;
      sc.stamp
    end
    else 0
  in
  let owner = sc.owner in
  let own_rows = ref fresh and own_best = ref fresh in
  let slot_at p k = if patched then slot st p k else slab.(k) in
  let patched_set p k x =
    if not !own_rows then begin
      st.rows <-
        (if Array.length st.rows = 0 then Array.make n [||]
         else Array.copy st.rows);
      own_rows := true
    end;
    let rows = st.rows in
    if owner.(p) <> stamp then begin
      let r = rows.(p) in
      rows.(p) <-
        (if Array.length r = 0 then Array.sub slab off.(p) (off.(p + 1) - off.(p))
         else Array.copy r);
      owner.(p) <- stamp
    end;
    rows.(p).(k - off.(p)) <- x
  in
  let set_best u r =
    if not !own_best then begin
      st.best <- Array.copy st.best;
      own_best := true
    end;
    st.best.(u) <- r
  in
  (* A decision's winner: a slot index, or one of these. *)
  let win_orig = -1 and win_none = -2 and win_kept = -3 in
  let recompute_best_scoped u =
    let m = ref 0 in
    if is_route orig.(u) then begin
      med_ids.(0) <- win_orig;
      m := 1
    end;
    let slots = if patched then row st u else slab in
    let base = row_start st u slots in
    let o = off.(u) in
    for s = 0 to off.(u + 1) - o - 1 do
      if is_import slots.(base + s) then begin
        med_ids.(!m) <- o + s;
        incr m
      end
    done;
    if !m = 0 then win_none
    else
      Decision.select_slots ~med_scope steps sessions ~own_ip:ips.(u) slots
        ~shift:(base - o) ~ids:med_ids ~keys:med_keys !m
  in
  (* The first minimum of [u]'s originated route and its slots, in
     RIB-In order: the decision process over all its candidates. *)
  let scan u =
    let slots = if patched then row st u else slab in
    let base = row_start st u slots in
    let o = off.(u) in
    let w = ref (if is_route orig.(u) then win_orig else win_none) in
    let wx = ref Rattr.no_import in
    for s = 0 to off.(u + 1) - o - 1 do
      let x = slots.(base + s) in
      if is_import x then begin
        let k = o + s in
        if
          !w = win_none
          || (if !w = win_orig then compare_slot x k orig.(u) < 0
              else compare_slots x k !wx !w < 0)
        then begin
          w := k;
          wx := x
        end
      end
    done;
    !w
  in
  (* Incremental best computation, as a BGP speaker runs it.  The
     elimination process equals the lexicographic minimum under
     Decision.compare_routes, first in RIB-In order winning ties.  A
     dequeued node's entry [q] is the slot of the best route written
     into its slots since its last decision (the lower slot among
     equals), [pend_orig] for an originated route gained this run,
     [no_pend] if nothing was written, or [rescan] once the standing
     best may have left its slot ([kill], [store], [reseat]).  Without
     a rescan mark the standing best is still in its slot and every
     slot not written since is no better, so the winner is the better
     of the pending route and the standing best; a tie between the two
     needs their slot order, so it scans.  Scoped MED keeps its full
     elimination and ignores the marks, so [store] skips its
     comparisons there.  Returns the winner ([win_kept]: the standing
     best).  Nothing allocates. *)
  let recompute_best u q =
    if scoped_med then recompute_best_scoped u
    else if q = no_pend then win_kept
    else begin
      let b = st.best.(u) in
      let c =
        if q = rescan then 0
        else if q = pend_orig then
          if is_route b then compare_routes orig.(u) b else -1
        else if not (is_import (slot_at u q)) then 0
        else if is_route b then compare_slot (slot_at u q) q b
        else -1
      in
      if c < 0 then (if q = pend_orig then win_orig else q)
      else if c > 0 then win_kept
      else (* a rescan mark, or a tie *) scan u
    end
  in
  (* The advertisement died on the session into [p]'s slot [kr]:
     withdraw the incumbent if there is one.  Losing the pending route,
     or the route [p] last chose, sends [p] to a scan. *)
  let kill kr p =
    let cur = if patched then slot st p kr else slab.(kr) in
    if is_import cur then begin
      enqueue p;
      let q = queued.(p) in
      if q = kr || (q <> rescan && same_import cur peer.(kr) st.best.(p))
      then queued.(p) <- rescan;
      if patched then patched_set p kr Rattr.no_import
      else slab.(kr) <- Rattr.no_import
    end
  in
  (* [u]'s advertisement survived into [p]'s slot [kr]: compare the
     computed fields against the incumbent (the [same_route] criteria,
     inlined; the sender is the slot's) and write a record only on an
     actual change — suppressed imports, the vast majority, allocate
     nothing.  The record written is [m1] or [m2] when one holds the
     same path, by identity, and the same attributes, else a new one;
     the slot's record is returned, for the caller to offer to the next
     [store].  Records are not hash-consed beyond that: measured on 2k-AS worlds,
     cold-convergence imports almost never recur across exports, so a
     table probe per write cost 20-35% throughput while the table only
     retained garbage.  [kill] and [store] live here, not in
     [push_exports], so that no closure is allocated per export.  A
     written route becomes [p]'s pending candidate if it beats the one
     pending; overwriting the pending route, or [p]'s chosen route with
     one that does not beat it, sends [p] to a scan. *)
  let store u kr p path lpref med igp (m1 : Rattr.import) (m2 : Rattr.import)
      =
    let cur = if patched then slot st p kr else slab.(kr) in
    if
      is_import cur
      && Rattr.same_path cur.path path
      && cur.lpref = lpref && cur.med = med && cur.igp = igp
    then cur
    else begin
      let x =
        if m1.path == path && m1.lpref = lpref && m1.med = med && m1.igp = igp
        then m1
        else if
          m2.path == path && m2.lpref = lpref && m2.med = med && m2.igp = igp
        then m2
        else { Rattr.path; lpref; med; igp }
      in
      enqueue p;
      let q = queued.(p) in
      if q <> rescan && not scoped_med then begin
        let b = st.best.(p) in
        if
          q = kr
          || is_import cur
             && same_import cur u b
             && compare_slot x kr b >= 0
        then queued.(p) <- rescan
        else if q = no_pend then queued.(p) <- kr
        else begin
          let c =
            if q = pend_orig then compare_slot x kr orig.(p)
            else compare_slots x kr (slot_at p q) q
          in
          if c < 0 || (c = 0 && kr < q) then queued.(p) <- kr
        end
      end;
      if patched then patched_set p kr x else slab.(kr) <- x;
      x
    end
  in
  (* Re-export node [u]'s current best over every slot, importing at
     each peer's mirror slot and enqueueing peers whose RIB-In changed.
     The export and import decisions of the reference engine, fused:
     the advertisement either dies (sentinel) or becomes an import
     record written straight into the peer's slab slot.  An export's
     eBGP imports all carry its prepended path and its iBGP imports the
     best's own path, LOCAL_PREF and MED, so consecutive imports of one
     kind often come out equal: [store] is offered the last two records
     of the export's eBGP imports, or the last of its iBGP imports
     (whose IGP costs tend to differ per session), and shares one that
     matches. *)
  let push_exports u best' =
    let has = is_route best' in
    let ebgp_path =
      if has then Intern.prepend memo ~own_as:asns.(u) best'.Rattr.path
      else [||]
    in
    let last_ebgp = ref Rattr.no_import and prev_ebgp = ref Rattr.no_import in
    let last_ibgp = ref Rattr.no_import in
    let base = off.(u) in
    for k = base to off.(u + 1) - 1 do
      let p = peer.(k) in
      let kr = rev.(k) in
      if not has then kill kr p
      else begin
        let r = best' in
        let ibgp = kinds.(k) = 1 in
        if r.Rattr.from_node = p then kill kr p
        else if
          ibgp
          && r.Rattr.learned = Rattr.From_ibgp
          && not
               (* RFC 4456 route reflection: an iBGP-learned route is
                  re-advertised over iBGP to clients always, and to
                  non-clients when it was learned from a client. *)
               (rrs.(k) = 1
               || (r.Rattr.from_session >= 0
                  && rrs.(base + r.Rattr.from_session) = 1))
        then kill kr p
        else if deny.(k) then kill kr p
        else if
          (not ibgp)
          && not export_ok.(((r.Rattr.learned_class + 1) * cw) + classes.(k) + 1)
        then kill kr p
        else begin
          let path = if ibgp then r.Rattr.path else ebgp_path in
          if kinds.(kr) = 0 then begin
            (* eBGP import at [p]: loop check, then import policy. *)
            if path_mem path asns.(p) then kill kr p
            else begin
              let lpref =
                let lp = lpref_for.(kr) in
                if lp <> min_int then lp
                else if carries.(kr) = 1 then r.Rattr.lpref
                else
                  let l = lprefs.(kr) in
                  if l = Net.Csr.no_lpref then 100 else l
              in
              let med =
                let m = med_in.(kr) in
                if m <> min_int then m else med_default
              in
              let x = store u kr p path lpref med 0 !last_ebgp !prev_ebgp in
              if x != !last_ebgp then begin
                prev_ebgp := !last_ebgp;
                last_ebgp := x
              end
            end
          end
          else
            (* LOCAL_PREF and MED travel unchanged inside the AS; the
               IGP cost to the egress (the announcing router)
               implements hot-potato ranking. *)
            last_ibgp :=
              store u kr p path r.Rattr.lpref r.Rattr.med igps.(kr) !last_ibgp
                Rattr.no_import
        end
      end
    done
  in
  (* Adopt a decision's winner as [u]'s best unless it reads the same
     as the standing one; a slot's winner becomes a whole route here,
     once per change. *)
  let adopt u w =
    let b = st.best.(u) in
    let best' =
      if w >= 0 then
        let x = slot_at u w in
        if same_import x peer.(w) b then b
        else slot_route ~peer ~ips ~kinds ~classes ~off u w x
      else if w = win_orig then
        if Rattr.same_route b orig.(u) then b else orig.(u)
      else if w = win_none then Rattr.no_route
      else b
    in
    if best' != b then begin
      set_best u best';
      (match on_best_change with
      | Some f -> f u (if is_route best' then Some best' else None)
      | None -> ());
      push_exports u best'
    end
  in
  let process u q =
    st.events <- st.events + 1;
    adopt u (recompute_best u q)
  in
  let replay u =
    st.events <- st.events + 1;
    push_exports u st.best.(u)
  in
  seed ~enqueue ~replay;
  (* Mark the queued nodes whose originated route came or went.  A
     gained originated route is a candidate ahead of every slot: it
     becomes the pending one unless a strictly better route is pending.
     A lost one sends the node to a scan. *)
  List.iter
    (fun u ->
      let q = queued.(u) in
      assert (q <> unqueued);
      if not (is_route orig.(u)) then queued.(u) <- rescan
      else if q = no_pend || (q >= 0 && compare_slot (slot_at u q) q orig.(u) >= 0)
      then queued.(u) <- pend_orig)
    reseat_nodes;
  (* Fingerprinting every event would tax the common case, so the
     watchdog arms only once half the initial budget is spent — any run
     that deep is already suspect, and a genuine cycle keeps repeating,
     so arming late never misses one. *)
  let threshold = budget / 2 in
  let history = ref None in
  let rec drain budget escalations_left =
    if not (queue_empty ()) then
      if st.events >= budget then
        if escalations_left > 0 then begin
          Logs.debug (fun m ->
              m "engine: prefix %a exhausted budget %d; escalating to %d"
                Prefix.pp st.pfx budget (budget * 2));
          incr escalated;
          drain (budget * 2) (escalations_left - 1)
        end
        else begin
          st.outcome <- Truncated { events = st.events; budget };
          Logs.warn (fun m ->
              m
                "engine: prefix %a hit its event budget (%d events, budget \
                 %d); returning a partial, non-converged state"
                Prefix.pp st.pfx st.events budget)
        end
      else begin
        let u = dequeue () in
        let q = queued.(u) in
        queued.(u) <- unqueued;
        process u q;
        if st.events >= threshold && not (queue_empty ()) then
          let fp = (incr fingerprinted; fingerprint st fold_queue queued n) in
          let history =
            match !history with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 64 in
                history := Some h;
                h
          in
          match Hashtbl.find_opt history fp with
          | Some e0 ->
              st.outcome <- Diverged { cycle_len = st.events - e0 };
              Logs.warn (fun m ->
                  m
                    "engine: prefix %a oscillates (state repeated after %d \
                     events, cycle length %d); returning a partial, \
                     non-converged state"
                    Prefix.pp st.pfx st.events (st.events - e0))
          | None ->
              if Hashtbl.length history >= watchdog_history_cap then
                Hashtbl.reset history;
              Hashtbl.add history fp st.events;
              drain budget escalations_left
        else drain budget escalations_left
      end
  in
  drain budget escalations;
  (* Hand the scratch back clean: undo the rule flattening, the
     originated routes and whatever a truncated or diverged run left
     queued. *)
  Net.iter_prefix_policies net st.pfx (fun u s ~deny:_ ~med:_ ~lpref:_ ->
      let k = off.(u) + s in
      deny.(k) <- false;
      med_in.(k) <- min_int;
      lpref_for.(k) <- min_int);
  List.iter (fun u -> orig.(u) <- Rattr.no_route) st.origins;
  while not (queue_empty ()) do
    queued.(dequeue ()) <- unqueued
  done;
  checkin_scratch sc;
  Obs.Metrics.incr runs_m;
  Obs.Metrics.incr ~by:st.events events_m;
  if !escalated > 0 then Obs.Metrics.incr ~by:!escalated escalations_m;
  if !fingerprinted > 0 then
    Obs.Metrics.incr ~by:!fingerprinted fingerprints_m;
  (match st.outcome with
  | Converged -> ()
  | Truncated _ -> Obs.Metrics.incr truncated_m
  | Diverged _ -> Obs.Metrics.incr diverged_m);
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~args:
        [
          ("prefix", Format.asprintf "%a" Prefix.pp st.pfx);
          ("kind", kind);
          ("outcome", Format.asprintf "%a" pp_outcome st.outcome);
          ("events", string_of_int st.events);
        ]
      ~name:"engine.simulate" ~ts_us:t0
      ~dur_us:(Obs.Trace.now_us () - t0)
      ();
  st

(* Slab-install probe: a state slab is written by exactly one run; the
   object is named per (net, prefix) so two unordered runs of the same
   prefix — or a reader holding the previous state — surface as a
   race.  Name formatting only happens with a probe hook installed. *)
let state_obj net pfx =
  Format.asprintf "%s/state/%a" (Net.probe_name net) Prefix.pp pfx

(* A cold run's state on [slab] and [best], which must be empty. *)
let cold_state net ~prefix:pfx ~originators ~arrays =
  if Obs.Probe.enabled () then
    Obs.Probe.write ~obj:(state_obj net pfx) ~site:"engine.install-cold";
  let c = Net.csr net in
  let n = Net.Csr.node_count c in
  (* The scratch arrays may be longer than [n], so an out-of-range
     originator would not fail an index check there. *)
  List.iter (fun o -> if o < 0 || o >= n then invalid_arg "index out of bounds")
    originators;
  let slab, best = arrays ~nslots:(Net.Csr.slot_count c) ~nodes:n in
  {
    pfx;
    gen = Net.generation net;
    nodes = n;
    csr = c;
    off = Net.Csr.off c;
    slab;
    rows = [||];
    best;
    origins = List.sort_uniq Int.compare originators;
    outcome = Converged;
    events = 0;
  }

let run_cold ?max_events ?max_escalations ?on_best_change net st ~originators
    =
  exec ?max_events ?max_escalations ?on_best_change ~fresh:true net st
    ~kind:"cold" ~reseat:originators ~seed:(fun ~enqueue ~replay:_ ->
      List.iter enqueue originators)

let cold ?max_events ?max_escalations ?on_best_change net ~prefix
    ~originators =
  run_cold ?max_events ?max_escalations ?on_best_change net ~originators
    (cold_state net ~prefix ~originators ~arrays:(fun ~nslots ~nodes ->
         (Array.make nslots Rattr.no_import, Array.make nodes Rattr.no_route)))

(* End a scoped run.  A cold run never replaces its [best] nor writes
   [rows], so [st.slab] and [st.best] are the borrowed pair: empty them
   and make them the cell's spare pair.  Emptying matters even when the
   pair is dropped: a slab or best array big enough to live in the
   major heap holds its routes through the remembered set, so a route
   still in it at the next minor collection is promoted although the
   state is dead.  Detached from the pair, the record reads as empty
   (no node, no slot) and, at generation -1, resumes on no net. *)
let release st =
  let slab = st.slab and best = st.best in
  st.slab <- [||];
  st.best <- [||];
  st.nodes <- 0;
  st.gen <- -1;
  Array.fill slab 0 (Array.length slab) Rattr.no_import;
  Array.fill best 0 (Array.length best) Rattr.no_route;
  let cell = Domain.DLS.get scratch_cell in
  match Atomic.exchange cell None with
  | Some sc ->
      sc.spare_slab <- slab;
      sc.spare_best <- best;
      Atomic.set cell (Some sc)
  | None -> ()

let with_cold net ~prefix ~originators f =
  let st = cold_state net ~prefix ~originators ~arrays:borrow_arrays in
  Fun.protect
    ~finally:(fun () -> release st)
    (fun () -> f (run_cold net st ~originators))

let resumable net prev =
  converged prev
  && prev.gen >= Net.append_base net
  && prev.gen <= Net.generation net
  && prev.nodes <= Net.node_count net

(* The nodes in exactly one of two ascending, distinct lists, ascending. *)
let rec sym_diff a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if x < y then x :: sym_diff a' b
      else if y < x then y :: sym_diff a b'
      else sym_diff a' b'

(* [prev] laid out in the slot order of a net that only grew since
   [prev.gen] (see {!Net.append_base}): sessions were only pushed, so
   each old node's slots are one run at the front of its new range, one
   blit per node (from its row, if [prev] has one), and every appended
   slot and node starts empty.  Returns the state, on a flat slab of its
   own, and the old nodes whose session count grew, ascending. *)
let append_remap net prev ~origins =
  let c = Net.csr net in
  let off = Net.Csr.off c in
  let slab = Array.make (Net.Csr.slot_count c) Rattr.no_import in
  let best = Array.make (Net.Csr.node_count c) Rattr.no_route in
  Array.blit prev.best 0 best 0 prev.nodes;
  let grown = ref [] in
  for u = prev.nodes - 1 downto 0 do
    let len = prev.off.(u + 1) - prev.off.(u) in
    let r = row prev u in
    Array.blit r (row_start prev u r) slab off.(u) len;
    if off.(u + 1) - off.(u) > len then grown := u :: !grown
  done;
  ( {
      prev with
      gen = Net.Csr.generation c;
      nodes = Array.length best;
      csr = c;
      off;
      slab;
      rows = [||];
      best;
      origins;
      outcome = Converged;
      events = 0;
    },
    !grown )

(* Precondition: [resumable net prev].  At [prev]'s generation the new
   state starts on [prev]'s arrays; the run copies a node's row (and the
   rows index, and [best]) before its first write there, so [prev] is
   never written and a resume that changes nothing shares them.  Behind
   by appends, it starts on [append_remap]'s arrays instead: the new
   nodes are queued, and the grown nodes replay their exports with the
   touched ones, so the appended sessions carry what a cold run would
   put on them. *)
let warm ?max_events ?max_escalations ?on_best_change net ~prev ~touched
    ~originators =
  if Obs.Probe.enabled () then begin
    let obj = state_obj net prev.pfx in
    Obs.Probe.read ~obj ~site:"engine.resume";
    Obs.Probe.write ~obj ~site:"engine.install-warm"
  end;
  let n = Net.node_count net in
  let origins =
    List.sort_uniq Int.compare
      (List.filter (fun o -> o >= 0 && o < n) originators)
  in
  let fresh = prev.gen <> Net.generation net in
  let st, grown =
    if fresh then append_remap net prev ~origins
    else ({ prev with origins; outcome = Converged; events = 0 }, [])
  in
  let replays =
    if grown = [] then touched
    else List.sort_uniq Int.compare (List.rev_append grown touched)
  in
  (* Origination delta: nodes that gain or lose the originated route
     under the caller's [originators] set re-run their decision process
     from the warm state — a gained origination injects the route, a
     lost one withdraws it, and the delta propagates like any other
     best-route change.  Callers resuming with an unchanged originator
     set produce an empty delta, so the historical policy-only warm
     path is untouched. *)
  let origin_delta = sym_diff prev.origins origins in
  exec ?max_events ?max_escalations ?on_best_change ~fresh net st
    ~kind:"warm" ~reseat:origin_delta ~seed:(fun ~enqueue ~replay ->
      (* Replay every touched node's exports unconditionally: peers
         whose RIB-In changes under the new policy enqueue themselves;
         the touched node itself re-runs its decision process whenever
         a replayed import disturbs it.  An unchanged advertisement is
         suppressed by [same_route], so a no-op policy edit costs one
         event and drains immediately. *)
      List.iter enqueue origin_delta;
      for u = prev.nodes to n - 1 do
        enqueue u
      done;
      List.iter (fun u -> if u >= 0 && u < n then replay u) replays)

let simulate ?max_events ?max_escalations ?on_best_change ?from ?touched net
    ~prefix:pfx ~originators =
  match from with
  | Some prev when resumable net prev && prev.pfx = pfx ->
      Obs.Metrics.incr resume_hits_m;
      let touched =
        match touched with Some t -> t | None -> Net.touched_nodes net pfx
      in
      warm ?max_events ?max_escalations ?on_best_change net ~prev ~touched
        ~originators
  | _ ->
      (match from with
      | Some _ -> Obs.Metrics.incr resume_misses_m
      | None -> ());
      cold ?max_events ?max_escalations ?on_best_change net ~prefix:pfx
        ~originators

let originating st = st.origins

let best_full_path net st n =
  match best st n with
  | None -> None
  | Some r -> Some (Rattr.full_path ~own_as:(Net.asn_of net n) r)

(* The memo holds the prepend of every best route the run exported, so
   reading it back is a hit that allocates nothing. *)
let advertised_path net st n =
  if n >= st.nodes then [||]
  else
    let r = st.best.(n) in
    if is_route r then
      Intern.prepend
        (Intern.tables (Net.intern_scope net))
        ~own_as:(Net.asn_of net n) r.Rattr.path
    else [||]

let selected_paths net st asn =
  let paths =
    List.filter_map (fun n -> best_full_path net st n) (Net.nodes_of_as net asn)
  in
  List.sort_uniq Stdlib.compare paths
