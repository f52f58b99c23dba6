(** Per-prefix route propagation to convergence.

    Like C-BGP (paper §2, §4.1), the engine computes the steady state of
    BGP for one prefix at a time: originators inject the route, nodes
    apply import policies, run the decision process and re-export their
    best route until no announcement changes anything.  The result gives
    access to every node's RIB-In and best route, which is exactly what
    the matching metrics of §4.2 inspect. *)

open Bgp

type state

type outcome =
  | Converged  (** the event queue drained: a true steady state. *)
  | Truncated of { events : int; budget : int }
      (** the event budget (after any escalations) ran out with work
          still queued; [events] node activations were performed against
          a final budget of [budget].  The state is partial. *)
  | Diverged of { cycle_len : int }
      (** the watchdog saw the exact full state (RIBs, best routes,
          event queue) repeat with work still queued — a genuine policy
          oscillation, since the transition function is deterministic.
          [cycle_len] is the number of events between the repeats. *)

val simulate :
  ?max_events:int ->
  ?max_escalations:int ->
  ?on_best_change:(int -> Rattr.t option -> unit) ->
  ?from:state ->
  ?touched:int list ->
  Net.t ->
  prefix:Prefix.t ->
  originators:int list ->
  state
(** The single simulation entry point.  Simulate [prefix] to
    convergence on [net], starting cold from [originators] — or, when
    [from] is a {!resumable} previous state of the {e same} prefix,
    warm: the run starts from the previous converged state and only
    the exports of the [touched] nodes (default {!Net.touched_nodes})
    are replayed.  [from] itself is never modified: at [from]'s
    generation the new state shares [from]'s RIB-In slab and copies
    only the rows of the nodes it writes (plus a node-indexed row table
    and the best routes, each on its first write), so a resume that
    changes nothing shares all of [from]'s arrays; behind by
    duplications, it starts on a fresh flat layout of them.  A warm
    resume also honours origination changes: nodes
    present in [originators] but not originating in [from] (and vice
    versa) have their flag flipped and their decision process re-run,
    so announce / withdraw / MOAS events replay incrementally without
    a cold rebuild.  A non-resumable or wrong-prefix [from] silently
    falls back to a cold start (counted in the
    [engine.warm_resume_misses] metric), so callers can pass their
    cache slot unconditionally.

    [max_events] (default [1000 + 200 * node_count]) bounds node
    activations.  When the budget runs out with work still queued, the
    run is retried with an escalating budget (×2 then ×4) up to
    [max_escalations] times before the state is declared {!Truncated};
    [max_escalations] defaults to 2 for the heuristic default budget
    and to 0 when [max_events] is given explicitly (an explicit cap is
    a caller decision — tests and budget experiments rely on it being
    exact).  A convergence watchdog arms once half the initial budget
    is spent and declares {!Diverged} as soon as the full simulation
    state repeats, cutting genuine oscillations short instead of
    burning escalated budgets.  [on_best_change node best] is a trace
    hook, called whenever a node adopts a new best route.  When
    {!Faultinject} is enabled in [Full] scope, chosen prefixes have
    their initial budget shrunk to 1. *)

val with_cold :
  Net.t -> prefix:Prefix.t -> originators:int list -> (state -> 'a) -> 'a
(** [with_cold net ~prefix ~originators f] is [f] applied to the state
    {!simulate} computes cold for [prefix] (same routes, outcome,
    events, budget, fault hooks and [engine.install-cold] probe), for
    callers that only read the state.  The state lives until [f]
    returns or raises: then its RIB-In slab and best routes are
    emptied, and the two arrays are kept for the next scoped run on the
    same domain, so the run allocates neither array and leaves no route
    for the collector to promote.

    Neither the state nor a state resumed from it inside [f] may escape
    [f]: a resumed state shares the recycled slab.  The state itself,
    if it escapes, reads as released, never as another run's routes: no
    best route and no RIB-In at any node, {!generation} [-1], and
    {!resumable} on no net.  Nested calls are allowed; the inner one
    runs on arrays of its own. *)

val resumable : Net.t -> state -> bool
(** Can a previous run of this prefix seed a warm restart on [net]?
    True when the state converged, was computed at a generation
    between {!Net.append_base} and the current {!Net.generation} (no
    structural or network-wide change since but duplications), and
    covers at most the net's nodes.  A state behind by duplications is
    laid out in the grown net's slot order; its new nodes are queued
    and the nodes that gained sessions replay their exports with the
    touched ones.  {!simulate} applies this check to its [from]
    argument; exposed so callers can predict whether a warm resume
    will hit.  It does not say the state is current: a state from
    before a duplication passes, though the duplicate has no route in
    it — compare {!generation} with {!Net.generation} for that. *)

val state_fingerprint : state -> int
(** Full-width hash of the routing content (best routes and RIB-Ins,
    no event-queue component): equal final states hash equally however
    they were reached.  The warm-vs-cold verification key. *)

val same_state : state -> state -> bool
(** Structural equality of routing content: same prefix, same per-node
    best routes and RIB-Ins ({!Rattr.same_advertisement} slot by
    slot). *)

val prefix : state -> Prefix.t

val generation : state -> int
(** The {!Net.generation} the state was computed at.  A state is
    current when this equals the net's generation (and it converged):
    [Analysis.Audit] checks that before comparing offsets, and
    [Asmodel.Whatif] before pruning a prefix. *)

val outcome : state -> outcome

val pp_outcome : Format.formatter -> outcome -> unit

val converged : state -> bool
(** [converged st] is [outcome st = Converged]. *)

val events : state -> int
(** Node activations performed. *)

val best : state -> int -> Rattr.t option
(** The node's selected route ([None]: no route). *)

val best_route : state -> int -> Rattr.t
(** {!best} without the option box: {!Rattr.no_route} when the node has
    no route.  Allocates nothing, for readers that scan many nodes. *)

val originating : state -> int list
(** The nodes that originated the prefix in this run, ascending — the
    [originators] the state was computed with (including any warm-resume
    origination delta).  Lets a cache rebuild its originator table from
    stored states. *)

val rib_in : state -> int -> (int * Rattr.t) list
(** [(session_index, route)] for every session currently delivering a
    route to the node, in session order.

    The state stores one {!Rattr.import} per RIB-In slot — path,
    LOCAL_PREF, MED and IGP cost as imported, one record shared by the
    slots an export reached with equal results — and reads the rest of
    each route from the slot's session in the {!Net.Csr} index of the
    state's {!generation}: [from_node] is the session's peer,
    [from_ip] that peer's address, [from_session] the session index,
    [learned] the session's kind and [learned_class] its class.  So
    this function, {!candidates}, {!iter_candidates} and
    {!fold_candidates} build each route they return; {!best} does not,
    a node's best route being a whole record already. *)

val iter_rib_in_paths : state -> int -> (int -> int array -> unit) -> unit
(** [iter_rib_in_paths st n f] calls [f session_index path] for every
    route in the node's RIB-In, in session order, where [path] is the
    route's [Rattr.path]: {!rib_in} for readers that compare paths
    alone, without building a route per slot.  Never write [path]. *)

val candidates : state -> Net.t -> int -> Rattr.t list
(** The decision-process input at a node: originated route (if the node
    originates the prefix) followed by the RIB-In routes. *)

val iter_candidates : state -> Net.t -> int -> (Rattr.t -> unit) -> unit
(** Visit the node's candidates in {!candidates} order without building
    a list — the traversal {!fold_candidates} runs on.  It builds each
    route it visits (see {!rib_in}); {!iter_rib_in_paths} reads paths
    without building any.  The tests check that it visits exactly
    {!candidates}' list, the decision process's input order. *)

val fold_candidates :
  state -> Net.t -> int -> init:'a -> f:('a -> Rattr.t -> 'a) -> 'a
(** Fold over the node's candidates in {!candidates} order. *)

val best_full_path : Net.t -> state -> int -> int array option
(** The node's selected AS-level path including its own AS — directly
    comparable with an observed AS-path. *)

val advertised_path : Net.t -> state -> int -> int array
(** The AS path the node advertises to an eBGP peer for its selected
    route: {!best_full_path}'s content, or [[||]] when the node has no
    route.  The array is the entry of [net]'s prepend memo for the
    calling domain ({!Intern.prepend}), made when the run exported the
    route, so reading it allocates nothing: never write it, and copy
    what must outlive the net. *)

val selected_paths : Net.t -> state -> Asn.t -> int array list
(** All distinct full paths selected by the nodes of an AS (what the AS
    as a whole propagates — the model's answer to "which routes does
    this AS use for this prefix"). *)
