open Bgp

type session_kind = Ebgp | Ibgp

let class_none = 0

(* Minimal growable vector; nodes and sessions are append-only. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 8 dummy; len = 0; dummy }

  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.get" else v.data.(i)

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1;
    v.len - 1

  let iteri f v =
    for i = 0 to v.len - 1 do
      f i v.data.(i)
    done
end

type session = {
  peer : int;
  mutable peer_session : int;
  kind : session_kind;
  s_class : int;
  mutable lpref_in : int option;
  mutable carry_lpref : bool;
  mutable rr_client : bool;
}

type node = { asn : Asn.t; ip : Ipv4.t; sessions : session Vec.t }

(* Frozen CSR-style session index.  [c_off] maps a node to its first
   half-session slot (length node_count + 1, so a node's slots are
   [c_off.(n) .. c_off.(n+1) - 1]); every other array is indexed by
   slot.  The index is immutable once built and keyed on the generation
   counter, so the engine's hot path walks flat int arrays instead of
   chasing node records, session Vecs and option fields.  Per-prefix
   policies are not part of it: they live in [policies] below, keyed by
   (node, session index), and mutate without a generation bump. *)
type csr = {
  c_gen : int;
  c_off : int array;
  c_peer : int array;  (* slot -> peer node id *)
  c_rev : int array;  (* slot -> slot of the mirror half-session; -1 if none *)
  c_revloc : int array;  (* slot -> peer-local index of the mirror *)
  c_kind : int array;  (* 0 = eBGP, 1 = iBGP *)
  c_class : int array;
  c_lpref : int array;  (* import LOCAL_PREF; [min_int] = unset *)
  c_carry : int array;  (* 0/1 *)
  c_rr : int array;  (* 0/1 *)
  c_asn : int array;  (* node -> ASN *)
  c_ip : int array;  (* node -> numeric router address *)
  c_igp : int array;  (* iBGP slot -> IGP cost to the peer; 0 elsewhere *)
  c_export : bool array;  (* (learned_class + 1) * c_cw + to_class + 1 *)
  c_cw : int;  (* export table width: largest class + 2 *)
  c_maxdeg : int;  (* widest node's session count *)
}

(* The per-prefix rules of one half-session.  [unset] marks an absent
   MED or LOCAL_PREF override; an entry with no rule left is removed. *)
let unset = min_int

type pol = { mutable deny : bool; mutable med : int; mutable lpref : int }

(* A (node, session index) pair packed into one int: the key survives a
   CSR rebuild, and [off.(node) + session] is its slot in any index. *)
let sess_bits = 31

let pol_key n s = (n lsl sess_bits) lor s

let key_node k = k lsr sess_bits

let key_session k = k land ((1 lsl sess_bits) - 1)

module Ptbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type t = {
  uid : int;  (* process-unique; names the Obs.Probe shared objects *)
  nodes : node Vec.t;
  by_as : (Asn.t, int list ref) Hashtbl.t;  (* node ids, ascending *)
  mutable export_ok : learned_class:int -> to_class:int -> bool;
  mutable igp : int -> int -> int;
  mutable med_default : int;
  mutable steps : Decision.step list;
  mutable m_scope : Decision.med_scope;
  mutable nsessions : int;  (* directed half-sessions *)
  (* Per-prefix policy store: export denies, import MEDs and per-prefix
     LOCAL_PREFs, one table per prefix that has any rule.  A run reads
     only its own prefix's table. *)
  policies : pol Ptbl.t Prefix.Table.t;
  (* Change tracking for warm-start re-simulation (Engine.simulate ?from):
     [generation] counts structural or network-wide mutations (nodes,
     sessions, global knobs); [append_base] is the generation of the
     last one that was not a [duplicate_node], so a state computed at
     or after it differs from the live net only by appended nodes and
     half-sessions, and any other bump invalidates every prior state;
     [touched] records, per prefix, the nodes whose per-prefix policy
     changed since the set was last drained — the frontier a resumed
     run replays. *)
  mutable generation : int;
  mutable append_base : int;
  touched : (int, unit) Hashtbl.t Prefix.Table.t;
  (* Lazily built structural index, invalidated by generation mismatch.
     An [Atomic] because Pool workers may race to build it: the value is
     immutable and any winner is equivalent, so the race is benign. *)
  csr_cache : csr option Atomic.t;
  intern : Intern.scope;  (* the net's prepend memo; see Intern *)
}

let dummy_session =
  {
    peer = -1;
    peer_session = -1;
    kind = Ebgp;
    s_class = class_none;
    lpref_in = None;
    carry_lpref = false;
    rr_client = false;
  }

let dummy_node =
  { asn = 0; ip = Ipv4.of_int 0; sessions = Vec.create dummy_session }

let next_uid = Atomic.make 0

let create () =
  let uid = Atomic.fetch_and_add next_uid 1 in
  {
    uid;
    nodes = Vec.create dummy_node;
    by_as = Hashtbl.create 256;
    export_ok = (fun ~learned_class:_ ~to_class:_ -> true);
    igp = (fun _ _ -> 0);
    med_default = 100;
    steps = Decision.model_steps;
    m_scope = Decision.Always_compare;
    nsessions = 0;
    policies = Prefix.Table.create 64;
    generation = 0;
    append_base = 0;
    touched = Prefix.Table.create 64;
    csr_cache = Atomic.make None;
    intern = Intern.scope ();
  }

let generation t = t.generation

let intern_scope t = t.intern

let append_base t = t.append_base

(* Mutation instrumentation for the Analysis subsystem.  The hook is a
   single global ref so that the RD_CHECK=off cost at every mutator is
   one load and a branch — no allocation, no indirect call.  Structural
   events fire after the generation bump and carry the post-bump value;
   policy events carry the same node the touched-set bookkeeping
   recorded, so a checker can audit both invariants. *)
type mutation =
  | Structural of { rule : string; generation : int }
  | Policy of { rule : string; prefix : Prefix.t; node : int }

let mutation_hook : (t -> mutation -> unit) option ref = ref None

let set_mutation_hook h = mutation_hook := h

let bump_generation t =
  t.generation <- t.generation + 1;
  t.append_base <- t.generation

(* The net's Obs.Probe objects are [net#N/structure] (nodes, sessions,
   global knobs), [net#N/policy] (per-prefix policy tables) and
   [net#N/csr] (the csr_cache Atomic, a declared benign race).  Names
   are formatted only while a probe hook is installed, so with
   RD_CHECK=off a net carries no name strings and a probe costs one
   load and a branch. *)
let probe t part kind ~site =
  if Obs.Probe.enabled () then
    Obs.Probe.access ~obj:(Printf.sprintf "net#%d/%s" t.uid part) ~site kind

let notify_structural t rule =
  probe t "structure" Write ~site:rule;
  match !mutation_hook with
  | None -> ()
  | Some f -> f t (Structural { rule; generation = t.generation })

let notify_policy t rule p node =
  probe t "policy" Write ~site:rule;
  match !mutation_hook with
  | None -> ()
  | Some f -> f t (Policy { rule; prefix = p; node })

(* Read-side probes: the engine (and any other reader that walks the
   structure or the policy tables for a whole run) records one read
   per object per run, so a mutation that is not ordered after the
   run by a Pool join or a snapshot writer section surfaces as a
   race. *)
let probe_read t ~site =
  probe t "structure" Read ~site;
  probe t "policy" Read ~site

let probe_name t = Printf.sprintf "net#%d" t.uid

let note_touched t p n =
  let set =
    match Prefix.Table.find_opt t.touched p with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 8 in
        Prefix.Table.add t.touched p set;
        set
  in
  Hashtbl.replace set n ()

let touched_nodes t p =
  match Prefix.Table.find_opt t.touched p with
  | None -> []
  | Some set ->
      (* Sorted so warm replay order — and hence event order — is
         deterministic regardless of hash-table iteration order. *)
      Hashtbl.fold (fun n () acc -> n :: acc) set []
      |> List.sort_uniq compare

let clear_touched t p = Prefix.Table.remove t.touched p

let add_node t ~asn ~ip =
  bump_generation t;
  let id =
    Vec.push t.nodes { asn; ip; sessions = Vec.create dummy_session }
  in
  (* [id] is the largest node id yet, so appending keeps the list
     ascending; an AS holds few nodes, so the append is short, and
     [nodes_of_as], called per suffix by the matching walk, allocates
     nothing. *)
  (match Hashtbl.find_opt t.by_as asn with
  | Some l -> l := !l @ [ id ]
  | None -> Hashtbl.add t.by_as asn (ref [ id ]));
  notify_structural t "add-node";
  id

let node_count t = Vec.length t.nodes

let session_count t = t.nsessions

let node t n = Vec.get t.nodes n

let asn_of t n = (node t n).asn

let ip_of t n = (node t n).ip

let nodes_of_as t asn =
  match Hashtbl.find t.by_as asn with l -> !l | exception Not_found -> []

let find_session t a b =
  let na = node t a in
  let found = ref None in
  Vec.iteri (fun i s -> if s.peer = b && !found = None then found := Some i)
    na.sessions;
  !found

let fresh_session ~peer ~kind ~s_class =
  {
    peer;
    peer_session = -1;
    kind;
    s_class;
    lpref_in = None;
    carry_lpref = false;
    rr_client = false;
  }

let connect ?(kind = Ebgp) ?(class_ab = class_none) ?(class_ba = class_none) t
    a b =
  if a = b then invalid_arg "Net.connect: self session";
  if find_session t a b <> None then
    invalid_arg "Net.connect: session already exists";
  bump_generation t;
  let sa = fresh_session ~peer:b ~kind ~s_class:class_ab in
  let sb = fresh_session ~peer:a ~kind ~s_class:class_ba in
  let ia = Vec.push (node t a).sessions sa in
  let ib = Vec.push (node t b).sessions sb in
  sa.peer_session <- ib;
  sb.peer_session <- ia;
  t.nsessions <- t.nsessions + 2;
  notify_structural t "connect";
  (ia, ib)

let sessions_of t n =
  let acc = ref [] in
  Vec.iteri (fun i s -> acc := (i, s.peer) :: !acc) (node t n).sessions;
  List.rev !acc

let build_csr t =
  let n = Vec.length t.nodes in
  let off = Array.make (n + 1) 0 in
  let total = ref 0 in
  for u = 0 to n - 1 do
    off.(u) <- !total;
    total := !total + Vec.length (Vec.get t.nodes u).sessions
  done;
  off.(n) <- !total;
  let total = !total in
  let peer = Array.make total (-1) in
  let rev = Array.make total (-1) in
  let revloc = Array.make total (-1) in
  let kind = Array.make total 0 in
  let cls = Array.make total class_none in
  let lpref = Array.make total min_int in
  let carry = Array.make total 0 in
  let rr = Array.make total 0 in
  let asn = Array.make n 0 in
  let ip = Array.make n 0 in
  let igp = Array.make total 0 in
  let maxdeg = ref 0 in
  for u = 0 to n - 1 do
    let nd = Vec.get t.nodes u in
    asn.(u) <- nd.asn;
    ip.(u) <- Ipv4.to_int nd.ip;
    let base = off.(u) in
    maxdeg := max !maxdeg (Vec.length nd.sessions);
    Vec.iteri
      (fun s ss ->
        let k = base + s in
        peer.(k) <- ss.peer;
        revloc.(k) <- ss.peer_session;
        (* A corrupted net (Unsafe) can dangle: guard the global slot so
           the index stays constructible for the lint to inspect. *)
        rev.(k) <-
          (if ss.peer >= 0 && ss.peer < n && ss.peer_session >= 0 then
             off.(ss.peer) + ss.peer_session
           else -1);
        kind.(k) <- (match ss.kind with Ebgp -> 0 | Ibgp -> 1);
        if ss.kind = Ibgp && ss.peer >= 0 && ss.peer < n then
          igp.(k) <- t.igp u ss.peer;
        cls.(k) <- ss.s_class;
        (match ss.lpref_in with Some v -> lpref.(k) <- v | None -> ());
        if ss.carry_lpref then carry.(k) <- 1;
        if ss.rr_client then rr.(k) <- 1)
      nd.sessions
  done;
  (* Session classes (and hence learned classes: a session class, or -1
     for an originated route) are small non-negative ints, so the export
     matrix collapses to a dense boolean table. *)
  let cw = Array.fold_left max 0 cls + 2 in
  let export = Array.make (cw * cw) false in
  for lc = -1 to cw - 2 do
    for tc = -1 to cw - 2 do
      export.(((lc + 1) * cw) + tc + 1) <-
        t.export_ok ~learned_class:lc ~to_class:tc
    done
  done;
  {
    c_gen = t.generation;
    c_off = off;
    c_peer = peer;
    c_rev = rev;
    c_revloc = revloc;
    c_kind = kind;
    c_class = cls;
    c_lpref = lpref;
    c_carry = carry;
    c_rr = rr;
    c_asn = asn;
    c_ip = ip;
    c_igp = igp;
    c_export = export;
    c_cw = cw;
    c_maxdeg = !maxdeg;
  }

let csr t =
  (* Both the cached-generation check and a rebuild read the live
     structure; the publish into the Atomic is the one declared benign
     race (immutable value, any winner equivalent) — it is probed as a
     write on the csr object so the detector sees it and the allowlist,
     not blindness, suppresses it. *)
  probe t "structure" Read ~site:"net.csr";
  match Atomic.get t.csr_cache with
  | Some c when c.c_gen = t.generation -> c
  | _ ->
      let c = build_csr t in
      probe t "csr" Write ~site:"net.csr-publish";
      Atomic.set t.csr_cache (Some c);
      c

(* A fresh index only when the cache is already valid: mutation-time
   callers (generators, the refiner between runs) must not trigger an
   O(nodes + sessions) rebuild per call. *)
let fresh_csr t =
  match Atomic.get t.csr_cache with
  | Some c when c.c_gen = t.generation -> Some c
  | _ -> None

module Csr = struct
  type nonrec t = csr

  let no_lpref = min_int

  let generation c = c.c_gen

  let node_count c = Array.length c.c_asn

  let slot_count c = Array.length c.c_peer

  let off c = c.c_off

  let peer c = c.c_peer

  let rev c = c.c_rev

  let reverse_local c = c.c_revloc

  let kinds c = c.c_kind

  let classes c = c.c_class

  let lprefs c = c.c_lpref

  let carries c = c.c_carry

  let rr_clients c = c.c_rr

  let asns c = c.c_asn

  let ips c = c.c_ip

  let igp_costs c = c.c_igp

  let export_table c = c.c_export

  let export_width c = c.c_cw

  let max_degree c = c.c_maxdeg
end

let iter_sessions t n f =
  match fresh_csr t with
  | Some c ->
      let base = c.c_off.(n) in
      for k = base to c.c_off.(n + 1) - 1 do
        f (k - base) c.c_peer.(k)
      done
  | None -> Vec.iteri (fun i s -> f i s.peer) (node t n).sessions

let session_count_of t n = Vec.length (node t n).sessions

let session t n s = Vec.get (node t n).sessions s

type session_info = {
  si_peer : int;
  si_reverse : int;
  si_kind : session_kind;
  si_class : int;
  si_lpref : int option;
  si_carry : bool;
  si_rr_client : bool;
}

let session_info t n s =
  match fresh_csr t with
  | Some c ->
      let k = c.c_off.(n) + s in
      {
        si_peer = c.c_peer.(k);
        si_reverse = c.c_revloc.(k);
        si_kind = (if c.c_kind.(k) = 1 then Ibgp else Ebgp);
        si_class = c.c_class.(k);
        si_lpref =
          (if c.c_lpref.(k) = min_int then None else Some c.c_lpref.(k));
        si_carry = c.c_carry.(k) = 1;
        si_rr_client = c.c_rr.(k) = 1;
      }
  | None ->
      let ss = session t n s in
      {
        si_peer = ss.peer;
        si_reverse = ss.peer_session;
        si_kind = ss.kind;
        si_class = ss.s_class;
        si_lpref = ss.lpref_in;
        si_carry = ss.carry_lpref;
        si_rr_client = ss.rr_client;
      }

let session_peer t n s = (session t n s).peer

let session_kind t n s = (session t n s).kind

let session_reverse t n s = (session t n s).peer_session

let session_class t n s = (session t n s).s_class

let set_import_lpref t n s v =
  bump_generation t;
  (session t n s).lpref_in <- Some v;
  notify_structural t "set-import-lpref"

let import_lpref t n s = (session t n s).lpref_in

let set_rr_client t n s v =
  bump_generation t;
  (session t n s).rr_client <- v;
  notify_structural t "set-rr-client"

let rr_client t n s = (session t n s).rr_client

let set_carry_lpref t n s v =
  bump_generation t;
  (session t n s).carry_lpref <- v;
  notify_structural t "set-carry-lpref"

let carry_lpref t n s = (session t n s).carry_lpref

(* Policy-store plumbing.  [find_pol] is the per-(node, session,
   prefix) read path; [update] applies an edit to one entry, creating it
   on demand and dropping it (and an emptied prefix table) once no rule
   is left, so per-prefix iteration never meets a cleared entry. *)
let find_pol t n s p =
  match Prefix.Table.find_opt t.policies p with
  | None -> None
  | Some tbl -> Ptbl.find_opt tbl (pol_key n s)

let is_empty_pol e = (not e.deny) && e.med = unset && e.lpref = unset

let update t n s p f =
  let tbl =
    match Prefix.Table.find_opt t.policies p with
    | Some tbl -> tbl
    | None ->
        let tbl = Ptbl.create 8 in
        Prefix.Table.add t.policies p tbl;
        tbl
  in
  let k = pol_key n s in
  let e =
    match Ptbl.find_opt tbl k with
    | Some e -> e
    | None ->
        let e = { deny = false; med = unset; lpref = unset } in
        Ptbl.add tbl k e;
        e
  in
  f e;
  if is_empty_pol e then begin
    Ptbl.remove tbl k;
    if Ptbl.length tbl = 0 then Prefix.Table.remove t.policies p
  end

let opt v = if v = unset then None else Some v

(* Import-side policy changes are recorded against the *sender*: the
   receiver cannot re-derive the pre-policy advertisement from its
   RIB-In, so a warm restart replays the sending peer's exports and the
   import runs again under the new policy. *)
let import_edit t rule n s p f =
  let peer = (session t n s).peer in
  note_touched t p peer;
  update t n s p f;
  notify_policy t rule p peer

let set_import_lpref_for t n s p v =
  import_edit t "set-import-lpref-for" n s p (fun e -> e.lpref <- v)

let clear_import_lpref_for t n s p =
  import_edit t "clear-import-lpref-for" n s p (fun e -> e.lpref <- unset)

let import_lpref_for t n s p =
  match find_pol t n s p with Some e -> opt e.lpref | None -> None

let set_import_med t n s p v =
  import_edit t "set-import-med" n s p (fun e -> e.med <- v)

let clear_import_med t n s p =
  import_edit t "clear-import-med" n s p (fun e -> e.med <- unset)

let import_med t n s p =
  match find_pol t n s p with Some e -> opt e.med | None -> None

(* Export-side changes are re-evaluated at the exporting node itself. *)
let export_edit t rule n s p deny =
  ignore (session t n s);
  note_touched t p n;
  update t n s p (fun e -> e.deny <- deny);
  notify_policy t rule p n

let deny_export t n s p = export_edit t "deny-export" n s p true

let allow_export t n s p = export_edit t "allow-export" n s p false

let export_denied t n s p =
  match find_pol t n s p with Some e -> e.deny | None -> false

let iter_prefix_policies t p f =
  match Prefix.Table.find_opt t.policies p with
  | None -> ()
  | Some tbl ->
      Ptbl.iter
        (fun k e ->
          f (key_node k) (key_session k) ~deny:e.deny ~med:e.med
            ~lpref:e.lpref)
        tbl

(* Every entry in ascending (node, session, prefix) order, so the folds
   below do not depend on hash-table layout or edit history. *)
let sorted_entries t =
  let acc = ref [] in
  Prefix.Table.iter
    (fun p tbl -> Ptbl.iter (fun k e -> acc := (k, p, e) :: !acc) tbl)
    t.policies;
  List.sort
    (fun (k1, p1, _) (k2, p2, _) ->
      let c = Int.compare k1 k2 in
      if c <> 0 then c else Prefix.compare p1 p2)
    !acc

let fold_export_denies t f init =
  List.fold_left
    (fun acc (k, p, e) ->
      if e.deny then f (key_node k) (key_session k) p acc else acc)
    init (sorted_entries t)

let fold_import_meds t f init =
  List.fold_left
    (fun acc (k, p, e) ->
      if e.med <> unset then f (key_node k) (key_session k) p e.med acc
      else acc)
    init (sorted_entries t)

let fold_import_lprefs t f init =
  List.fold_left
    (fun acc (k, p, e) ->
      if e.lpref <> unset then f (key_node k) (key_session k) p e.lpref acc
      else acc)
    init (sorted_entries t)

let count_policies t =
  let denies = ref 0 and meds = ref 0 in
  Prefix.Table.iter
    (fun _ tbl ->
      Ptbl.iter
        (fun _ e ->
          if e.deny then incr denies;
          if e.med <> unset then incr meds)
        tbl)
    t.policies;
  (!denies, !meds)

let set_export_matrix t f =
  bump_generation t;
  t.export_ok <- f;
  notify_structural t "set-export-matrix"

let export_matrix t ~learned_class ~to_class = t.export_ok ~learned_class ~to_class

let set_igp_cost t f =
  bump_generation t;
  t.igp <- f;
  notify_structural t "set-igp-cost"

let igp_cost t a b = t.igp a b

let set_default_med t v =
  bump_generation t;
  t.med_default <- v;
  notify_structural t "set-default-med"

let default_med t = t.med_default

let set_decision_steps t steps =
  bump_generation t;
  t.steps <- steps;
  notify_structural t "set-decision-steps"

let decision_steps t = t.steps

let set_med_scope t scope =
  bump_generation t;
  t.m_scope <- scope;
  notify_structural t "set-med-scope"

let med_scope t = t.m_scope

let duplicate_node t n =
  let orig = node t n in
  let idx = List.length (nodes_of_as t orig.asn) in
  let ip = Asn.router_ip orig.asn idx in
  (* The duplication only appends (a node, and one half-session at the
     end of each peer's list), so it leaves the append base where it
     was: a state from before it still resumes warm. *)
  let base = t.append_base in
  let id = add_node t ~asn:orig.asn ~ip in
  t.append_base <- base;
  let dup = node t id in
  (* Old policy key -> the key of the half-session that mirrors it. *)
  let remap = Ptbl.create (2 * Vec.length orig.sessions) in
  Vec.iteri
    (fun si s ->
      let peer_node = node t s.peer in
      let peer_half = Vec.get peer_node.sessions s.peer_session in
      (* Half-session at the duplicate, mirroring n's import/export
         policies toward this peer. *)
      let mine = fresh_session ~peer:s.peer ~kind:s.kind ~s_class:s.s_class in
      mine.lpref_in <- s.lpref_in;
      mine.carry_lpref <- s.carry_lpref;
      mine.rr_client <- s.rr_client;
      (* Half-session at the peer toward the duplicate, mirroring the
         peer's policies toward n (so the duplicate receives exactly the
         routes n receives — paper §4.6). *)
      let theirs =
        fresh_session ~peer:id ~kind:peer_half.kind ~s_class:peer_half.s_class
      in
      theirs.lpref_in <- peer_half.lpref_in;
      theirs.carry_lpref <- peer_half.carry_lpref;
      theirs.rr_client <- peer_half.rr_client;
      let im = Vec.push dup.sessions mine in
      let ip' = Vec.push peer_node.sessions theirs in
      mine.peer_session <- ip';
      theirs.peer_session <- im;
      Ptbl.replace remap (pol_key n si) (pol_key id im);
      Ptbl.replace remap (pol_key s.peer s.peer_session) (pol_key s.peer ip');
      t.nsessions <- t.nsessions + 2)
    orig.sessions;
  (* Deep-copy every per-prefix rule on the mirrored half-sessions. *)
  Prefix.Table.iter
    (fun _ tbl ->
      Ptbl.iter
        (fun k k' ->
          match Ptbl.find_opt tbl k with
          | Some e ->
              Ptbl.replace tbl k'
                { deny = e.deny; med = e.med; lpref = e.lpref }
          | None -> ())
        remap)
    t.policies;
  id

(* Deterministic digest of everything the simulation outcome depends
   on: nodes, sessions, session attributes and per-prefix policies.
   Per-prefix rules are folded order-independently (XOR of per-entry
   hashes over their CSR slot) because hash-table iteration order is
   unspecified.  Two nets built by identical generator runs fingerprint
   identically. *)
let structure_fingerprint t =
  let h = ref 0x9e37 in
  let mix x = h := (!h * 1000003) lxor (x land max_int) in
  let c = csr t in
  mix (Vec.length t.nodes);
  mix t.nsessions;
  mix t.med_default;
  Array.iter mix c.c_asn;
  Array.iter mix c.c_ip;
  Array.iter mix c.c_off;
  Array.iter mix c.c_peer;
  Array.iter mix c.c_revloc;
  Array.iter mix c.c_kind;
  Array.iter mix c.c_class;
  Array.iter mix c.c_lpref;
  Array.iter mix c.c_carry;
  Array.iter mix c.c_rr;
  let acc = ref 0 in
  Prefix.Table.iter
    (fun p tbl ->
      Ptbl.iter
        (fun key e ->
          let k = c.c_off.(key_node key) + key_session key in
          if e.med <> unset then acc := !acc lxor Hashtbl.hash (k, 0, p, e.med);
          if e.lpref <> unset then
            acc := !acc lxor Hashtbl.hash (k, 1, p, e.lpref);
          if e.deny then acc := !acc lxor Hashtbl.hash (k, 2, p))
        tbl)
    t.policies;
  mix !acc;
  !h

let pp_summary ppf t =
  let denies, meds = count_policies t in
  Format.fprintf ppf "%d nodes, %d sessions, %d ASes, %d filters, %d med rules"
    (node_count t) (t.nsessions / 2) (Hashtbl.length t.by_as) denies meds

(* Deliberate invariant violations for the Analysis test suite.  Every
   safe constructor ([connect], [duplicate_node]) maintains session
   symmetry and AS membership, so the only way to exercise the lint's
   Error paths is to corrupt a net on purpose.  Generations are still
   bumped (a corrupted net must not warm-resume), but no mutation event
   fires — these are not real mutators. *)
module Unsafe = struct
  let push_half_session t n ~peer ?(kind = Ebgp) ?(s_class = class_none)
      ?(peer_session = -1) () =
    bump_generation t;
    let s = fresh_session ~peer ~kind ~s_class in
    s.peer_session <- peer_session;
    let i = Vec.push (node t n).sessions s in
    t.nsessions <- t.nsessions + 1;
    i

  let set_peer_session t n s v =
    bump_generation t;
    (session t n s).peer_session <- v

  let set_session_count t v =
    bump_generation t;
    t.nsessions <- v

  let detach_from_as t n =
    bump_generation t;
    match Hashtbl.find_opt t.by_as (asn_of t n) with
    | Some l -> l := List.filter (fun id -> id <> n) !l
    | None -> ()

  (* Seeded-race negative control: run [f t] on a freshly spawned
     domain with NO synchronization edge published to the probe layer
     — the Domain.join below really orders the mutation, but the
     detector is only told what the probes tell it, so a happens-before
     checker must flag the access.  A detector that stays silent here is
     broken. *)
  let from_foreign_domain t f = Domain.join (Domain.spawn (fun () -> f t))
end
