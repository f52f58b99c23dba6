(** Simulated networks: nodes, BGP sessions and policies.

    A network holds routers (or quasi-routers) identified by dense
    integer ids, each belonging to an AS and carrying an address used by
    the final decision-process tie-break.  Sessions are stored as
    directed half-sessions: node [n]'s half toward peer [m] carries the
    policies [n] applies when {e exporting} to [m] and when
    {e importing} from [m].

    Networks are mutable: the refinement heuristic adds quasi-routers,
    filters and MED rules between simulation runs. *)

open Bgp

type t

type session_kind = Ebgp | Ibgp

val class_none : int
(** Relationship class for sessions without one (the agnostic model). *)

val create : unit -> t

val intern_scope : t -> Intern.scope
(** The scope of the net's prepend memo: [Engine] runs prepend
    through it, so the paths die with the net. *)

val add_node : t -> asn:Asn.t -> ip:Ipv4.t -> int
(** Returns the new node's id. *)

val node_count : t -> int

val session_count : t -> int
(** Total directed half-sessions (twice the number of BGP sessions). *)

val asn_of : t -> int -> Asn.t

val ip_of : t -> int -> Ipv4.t

val nodes_of_as : t -> Asn.t -> int list
(** Node ids of an AS, in creation order (lowest quasi-router id — and
    hence lowest address — first); [] for unknown ASes.  The list is
    kept in that order as nodes are added, so reading it allocates
    nothing. *)

val connect :
  ?kind:session_kind ->
  ?class_ab:int ->
  ?class_ba:int ->
  t ->
  int ->
  int ->
  int * int
(** [connect t a b] establishes a BGP session; returns the session index
    of the new half-session at [a] and at [b].  [class_ab] is the
    relationship class [a] assigns to peer [b] (how [a] sees [b]);
    [class_ba] the converse.  Raises [Invalid_argument] if a session
    between [a] and [b] already exists or [a = b]. *)

val sessions_of : t -> int -> (int * int) list
(** [(session_index, peer_node_id)] pairs at a node. *)

val iter_sessions : t -> int -> (int -> int -> unit) -> unit
(** [iter_sessions t n f] calls [f session_index peer_node_id] for every
    session of [n] without allocating (the engine's hot path). *)

val session_count_of : t -> int -> int
(** Number of sessions at a node. *)

val session_peer : t -> int -> int -> int
(** [session_peer t n s] is the node at the far end of session [s] of
    node [n]. *)

val session_kind : t -> int -> int -> session_kind

val session_reverse : t -> int -> int -> int
(** [session_reverse t n s] is the index, at the peer, of the
    half-session mirroring session [s] of node [n]. *)

val session_class : t -> int -> int -> int
(** Relationship class node [n] assigns to the peer of session [s]. *)

val find_session : t -> int -> int -> int option
(** [find_session t a b] is the index at [a] of the session to [b]. *)

type session_info = {
  si_peer : int;
  si_reverse : int;  (** index of the mirror half-session at the peer *)
  si_kind : session_kind;
  si_class : int;
  si_lpref : int option;
  si_carry : bool;
  si_rr_client : bool;
}

val session_info : t -> int -> int -> session_info
(** All per-session fields in one lookup.  Backed by the {!Csr} index
    when one is current (simulation phases), falling back to the node
    records during mutation phases. *)

(** {2 Frozen CSR session index}

    A dense, immutable, per-generation index of the whole session
    structure: a node's half-sessions occupy the contiguous slot range
    [off.(n) .. off.(n+1) - 1], and every per-slot attribute is a flat
    int array.  This is the engine's hot-path view: walking a node's
    sessions is a linear scan of int arrays, and the mirror half-session
    at the peer is one array read ({!Csr.rev}) instead of a node-record
    chase.  The arrays are shared, not copied — callers must treat them
    as read-only.  Per-prefix policies are not in the index: they live
    in a per-prefix store keyed by (node, session index) — see
    {!iter_prefix_policies} — and a rule's slot in any index is
    [off.(node) + session]. *)
module Csr : sig
  type t

  val generation : t -> int
  (** The {!Net.generation} the index was built at — equal to the
      net's current generation iff the index is current. *)

  val node_count : t -> int

  val slot_count : t -> int
  (** Total half-session slots ([= session_count] of the net). *)

  val off : t -> int array
  (** Length [node_count + 1]; slot range of node [n] is
      [off.(n) .. off.(n+1) - 1]. *)

  val peer : t -> int array
  (** Slot -> peer node id. *)

  val rev : t -> int array
  (** Slot -> global slot of the mirror half-session at the peer
      ([-1] when dangling — corrupted nets only). *)

  val reverse_local : t -> int array
  (** Slot -> peer-local index of the mirror half-session. *)

  val kinds : t -> int array
  (** Slot -> [0] for eBGP, [1] for iBGP. *)

  val classes : t -> int array
  (** Slot -> relationship class. *)

  val lprefs : t -> int array
  (** Slot -> import LOCAL_PREF, or {!no_lpref} when unset. *)

  val no_lpref : int
  (** Sentinel ([min_int]) in {!lprefs} for "no import preference". *)

  val carries : t -> int array
  (** Slot -> 1 iff the session carries the announcer's LOCAL_PREF. *)

  val rr_clients : t -> int array
  (** Slot -> 1 iff the peer is a route-reflection client. *)

  val asns : t -> int array
  (** Node -> ASN. *)

  val ips : t -> int array
  (** Node -> numeric router address (the final tie-break value). *)

  val igp_costs : t -> int array
  (** Slot -> {!igp_cost} from the slot's node to its peer for an iBGP
      slot, [0] for an eBGP or dangling one: the hot-potato rank of a
      route imported over that slot.  Computed once per generation
      ({!set_igp_cost} bumps it). *)

  val export_table : t -> bool array
  (** {!export_matrix} as a dense table: entry
      [((learned_class + 1) * export_width) + to_class + 1] for
      [learned_class] in [-1 .. export_width - 2] and [to_class] in
      [-1 .. export_width - 2]. *)

  val export_width : t -> int
  (** The largest session class plus 2. *)

  val max_degree : t -> int
  (** The largest session count of any node. *)
end

val csr : t -> Csr.t
(** The CSR index for the net's current generation, built on first use
    and cached until the next structural mutation.  Safe to call from
    concurrent readers (Pool workers): the cache is atomic and rebuild
    races are benign.  Cost when cached: two loads and a compare. *)

val structure_fingerprint : t -> int
(** Deterministic digest of the full simulation-relevant structure:
    nodes, sessions, session attributes, global knob defaults and
    per-prefix policies (order-independently).  Identical generator runs
    produce identical fingerprints — the netgen determinism gate. *)

(** {2 Policies} *)

val set_import_lpref : t -> int -> int -> int -> unit
(** [set_import_lpref t n s v]: routes received by [n] over session [s]
    get LOCAL_PREF [v] (default: the network-wide default, 100). *)

val import_lpref : t -> int -> int -> int option

val set_rr_client : t -> int -> int -> bool -> unit
(** [set_rr_client t n s true]: the peer of iBGP session [s] is a
    route-reflection client of [n].  The engine then applies RFC 4456
    reflection at [n]: iBGP-learned routes are re-advertised over iBGP
    to clients always, and to non-clients when they were learned from a
    client.  Without any client flags iBGP behaves as a full mesh
    (iBGP-learned routes are never re-advertised). *)

val rr_client : t -> int -> int -> bool

val set_carry_lpref : t -> int -> int -> bool -> unit
(** [set_carry_lpref t n s true]: routes received by [n] over eBGP
    session [s] keep the announcer's LOCAL_PREF instead of getting an
    import value — the behaviour of sibling ASes (one organization, so
    preference is preserved across the boundary, as with
    confederations).  Carrying the preference makes two-sibling dispute
    wheels impossible: a mutual preference inversion would need
    [a > b] and [b > a] on the carried values. *)

val carry_lpref : t -> int -> int -> bool

val set_import_med : t -> int -> int -> Prefix.t -> int -> unit
(** Per-prefix MED override on import (the refiner's ranking rule). *)

val set_import_lpref_for : t -> int -> int -> Prefix.t -> int -> unit
(** Per-prefix LOCAL_PREF override on import — the ranking mechanism the
    paper tried first and abandoned because preferring routes with
    longer AS-paths over shorter ones can diverge (§4.6, citing [37]).
    Kept so the negative result is reproducible; takes precedence over
    the per-session import preference. *)

val clear_import_lpref_for : t -> int -> int -> Prefix.t -> unit

val import_lpref_for : t -> int -> int -> Prefix.t -> int option

val clear_import_med : t -> int -> int -> Prefix.t -> unit

val import_med : t -> int -> int -> Prefix.t -> int option

val deny_export : t -> int -> int -> Prefix.t -> unit
(** [deny_export t n s p]: node [n] stops announcing prefix [p] over
    session [s] (the refiner's filter rule). *)

val allow_export : t -> int -> int -> Prefix.t -> unit
(** Remove a {!deny_export} rule (the refiner's filter deletion). *)

val export_denied : t -> int -> int -> Prefix.t -> bool

val iter_prefix_policies :
  t ->
  Prefix.t ->
  (int -> int -> deny:bool -> med:int -> lpref:int -> unit) ->
  unit
(** [iter_prefix_policies t p f] calls [f node session ~deny ~med ~lpref]
    once for every half-session carrying a rule for [p], in unspecified
    order; [med] and [lpref] are [min_int] when that override is unset.
    Visits only [p]'s own rules — the engine's per-run policy read. *)

val fold_export_denies : t -> (int -> int -> Prefix.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over all (node, session, prefix) deny rules.  This and the two
    folds below visit rules in ascending (node, session, prefix) order,
    independent of edit history. *)

val fold_import_meds :
  t -> (int -> int -> Prefix.t -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over all (node, session, prefix, med) import-MED rules. *)

val fold_import_lprefs :
  t -> (int -> int -> Prefix.t -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over all (node, session, prefix, lpref) per-prefix LOCAL_PREF
    rules. *)

val count_policies : t -> int * int
(** [(deny_rules, med_rules)] across the network. *)

(** {2 Network-wide configuration} *)

val set_export_matrix : t -> (learned_class:int -> to_class:int -> bool) -> unit
(** Relationship-based export rule for eBGP sessions: may a route
    learned over a session of class [learned_class] ([-1] when
    originated) be exported over a session of class [to_class]?
    Default: always true (the agnostic model). *)

val export_matrix : t -> learned_class:int -> to_class:int -> bool

val set_igp_cost : t -> (int -> int -> int) -> unit
(** IGP distance between two routers of the same AS, for hot-potato
    ranking of iBGP-learned routes.  Default: constant 0. *)

val igp_cost : t -> int -> int -> int

val set_default_med : t -> int -> unit
(** MED assigned on import when no per-prefix rule matches (default
    100, so the refiner's MED 0 rules rank below it). *)

val default_med : t -> int

val set_decision_steps : t -> Decision.step list -> unit
(** Default: {!Decision.model_steps}. *)

val decision_steps : t -> Decision.step list

val set_med_scope : t -> Decision.med_scope -> unit
(** MED comparison scope of the decision process.  Default:
    {!Decision.Always_compare} (the paper's §4.6 ranking semantics, the
    right choice for quasi-router models).  Router-level ground truth
    networks should use {!Decision.Same_neighbor} (RFC 4271
    §9.1.2.2). *)

val med_scope : t -> Decision.med_scope

(** {2 Structure edits used by the refiner} *)

val duplicate_node : t -> int -> int
(** [duplicate_node t n] creates a copy of [n] in the same AS with the
    next quasi-router index: same sessions (fresh half-sessions on both
    sides) and deep-copied policies in both directions, so the copy has
    the same RIB-In as the original (paper §4.6).  Returns the new id.
    It only appends (the node, and one half-session at the end of each
    peer's list), so it bumps the generation but leaves {!append_base}
    alone. *)

(** {2 Change tracking for warm-start re-simulation}

    Mutations are classified for warm resumption ({!Engine.simulate}
    with [from]).  Structural and network-wide changes ([add_node],
    [connect], [duplicate_node], [set_export_matrix], [set_igp_cost],
    [set_default_med], [set_decision_steps], [set_med_scope],
    [set_import_lpref], [set_rr_client], [set_carry_lpref] and every
    {!Unsafe} edit) bump the generation counter.  All of them but
    [duplicate_node] also move the {!append_base} up to the new
    generation, invalidating every previously captured state; a
    duplication only appends, so a state from before it stays
    resumable.  Per-prefix policy edits record a touched node in that
    prefix's set instead.
    Import-side edits ([set_import_med], [clear_import_med],
    [set_import_lpref_for], [clear_import_lpref_for]) record the
    {e sending peer} — a resumed run replays the sender's exports so
    the import policy is re-applied; export-side edits ([deny_export],
    [allow_export]) record the exporting node itself. *)

val generation : t -> int
(** Bumped on every structural or network-wide mutation. *)

val append_base : t -> int
(** The generation of the last bump that was not a [duplicate_node].
    Between it and {!generation} the net changed only by appends: new
    nodes, and new half-sessions at the end of existing nodes' session
    lists, so every existing (node, session index) keeps its meaning.
    {!Engine.resumable} accepts a state computed in that range. *)

val touched_nodes : t -> Prefix.t -> int list
(** Nodes whose per-prefix policy changed since the last
    {!clear_touched}, sorted ascending (deterministic replay order). *)

val clear_touched : t -> Prefix.t -> unit
(** Drain the prefix's touched set, typically right after capturing the
    converged state that reflects those changes. *)

(** {2 Mutation instrumentation}

    Every mutator reports itself through an optional global hook so the
    Analysis subsystem can audit mutation discipline ([RD_CHECK]):
    whether a mutation ran inside a {!Pool} batch, and whether the
    warm-start bookkeeping above was maintained.  (Which domain may
    mutate is the race detector's question, asked through the
    {!Obs.Probe} write each mutator also publishes.)  With no hook
    installed the cost per mutation is one load and a branch. *)

type mutation =
  | Structural of { rule : string; generation : int }
      (** A structural or network-wide mutation; [generation] is the
          counter {e after} the bump, so a checker can assert it
          advanced. *)
  | Policy of { rule : string; prefix : Prefix.t; node : int }
      (** A per-prefix policy mutation; [node] is the node recorded in
          the prefix's touched set (the sending peer for import-side
          edits, the exporting node for export-side ones). *)

val set_mutation_hook : (t -> mutation -> unit) option -> unit
(** Install (or remove, with [None]) the process-wide mutation
    observer.  The hook runs synchronously in the mutating domain and
    must not itself mutate the net.  [duplicate_node] reports a single
    [add-node] event — it performs one generation bump. *)

val probe_read : t -> site:string -> unit
(** Record a read-side access to the net's structure and policy
    objects with {!Obs.Probe} — the engine calls it once per run, so
    under [RD_CHECK=on] a mutation unordered with the run is a race
    finding.  Mutators probe the write side themselves; with no probe
    hook installed this is two loads and branches. *)

val probe_name : t -> string
(** The net's probe-object name prefix ([net#N]) — shared-object names
    derived from a net (engine states, journals) build on it so race
    findings group by net. *)

val pp_summary : Format.formatter -> t -> unit

(** {2 Deliberate corruption — test helper}

    Break the invariants the safe API maintains, so the Analysis lint's
    Error paths can be exercised.  Never use outside tests.  Each edit
    is an audit seam: the tests make it and check that the rule named
    below reports it. *)
module Unsafe : sig
  val push_half_session :
    t ->
    int ->
    peer:int ->
    ?kind:session_kind ->
    ?s_class:int ->
    ?peer_session:int ->
    unit ->
    int
  (** Append a dangling half-session at a node (no mirror at the peer;
      [peer_session] defaults to [-1]).  Counts one half-session.
      Provokes [session-asymmetric], [session-self],
      [session-duplicate] and [session-kind-mismatch]. *)

  val set_peer_session : t -> int -> int -> int -> unit
  (** Overwrite a session's reverse index (breaks the round-trip).
      Provokes [session-asymmetric] and the CSR audit's
      [audit-csr-slot]/[audit-csr-rev]. *)

  val set_session_count : t -> int -> unit
  (** Desynchronize the cached half-session count.  Provokes
      [session-count]. *)

  val detach_from_as : t -> int -> unit
  (** Remove a node from its AS's [nodes_of_as] list.  Provokes
      [as-membership] and [as-membership-count]. *)

  val from_foreign_domain : t -> (t -> unit) -> unit
  (** [from_foreign_domain t f] runs [f t] on a freshly spawned domain
      with no synchronization edge published to {!Obs.Probe} — the
      seeded-race negative control: under [RD_CHECK=on] a mutation
      inside [f] must be reported as a race.  Joins before
      returning. *)
end
