(** What-if studies on an AS-routing model.

    The paper's motivation (§1) is answering questions like "what if a
    certain peering link was removed".  With a refined model this
    becomes: disable the link, re-simulate, and diff the selected
    routes ({!eval}). *)

open Bgp

val sessions_between : Simulator.Net.t -> Asn.t -> Asn.t -> (int * int) list
(** Every half-session from a quasi-router of the first AS toward one
    of the second, as [(node, session)], in node then session order. *)

val link_sessions : Simulator.Net.t -> Asn.t -> Asn.t -> (int * int) list
(** Both directions of the link: [sessions_between net a b] then
    [sessions_between net b a] — the half-sessions
    {!disable_as_link} denies. *)

val deny_fresh :
  Simulator.Net.t ->
  (int * int) list ->
  Prefix.t list ->
  (int * int * Prefix.t) list
(** [deny_fresh net halves prefixes] denies every prefix on every
    half-session [(node, session)], skipping a slot already denied (a
    refiner filter, an earlier disable's, a down link's), and returns
    the [(node, session, prefix)] denies it placed, half-session then
    prefix order.  Lifting exactly those restores the deny set. *)

type disabled = {
  half_sessions : int;
      (** half-sessions between the two ASes; [0] means they share no
          session *)
  placed : (int * int * Prefix.t) list;
      (** the [(node, session, prefix)] export denies this disable
          added — the ones {!enable_as_link} lifts *)
}

val disable_as_link :
  ?prefixes:Prefix.t list -> Qrmodel.t -> Asn.t -> Asn.t -> disabled
(** Stop all route exchange between two ASes by denying every prefix in
    [prefixes] (default: every model prefix — pass the served set when
    it differs, e.g. a churned snapshot's) on every session between
    their quasi-routers, in both directions.  Sessions are kept.  A
    deny that already existed (e.g. a refiner-placed filter) is left
    out of [placed], so reverting with {!enable_as_link} keeps it.
    {!eval} runs on it; the tests also use it, with a cold re-simulation
    of every prefix, as the brute-force oracle for {!eval}'s pruned
    answer. *)

val enable_as_link : Qrmodel.t -> disabled -> unit
(** Revert a {!disable_as_link}: lift exactly the denies it placed.
    Reverting two disables of one link in either order restores the
    deny set from before the first — what lets {!eval} (and the
    brute-force oracle the tests check it against) leave the model as
    it found it. *)

type change = {
  prefix : Prefix.t;
  ases_changed : Asn.t list;  (** ASes whose selected path set changed *)
  ases_lost : Asn.t list;  (** ASes that lost all routes to the prefix *)
}

type diff = {
  changes : change list;  (** prefixes with any change, in state order *)
  prefixes_affected : int;
  ases_affected : int;  (** distinct ASes changed over all prefixes *)
  resumed : int;
      (** re-converged prefixes that resumed from their states instead
          of running cold *)
}

val changed_ases :
  Simulator.Net.t ->
  Simulator.Engine.state option ->
  Simulator.Engine.state ->
  Asn.t list * Asn.t list
(** [changed_ases net before after] compares two states of one prefix
    ([None]: no state before, every AS had no path).  Returns the ASes,
    ascending, whose selected path set differs, and the subset of them
    left with no path.  One O(nodes) pass over best routes; selected
    paths are compared only for ASes owning a node whose best path
    moved. *)

val eval :
  Qrmodel.t ->
  (Prefix.t * Simulator.Engine.state) list ->
  Asn.t ->
  Asn.t ->
  int * diff
(** [eval model states a b] answers "what if the link between [a] and
    [b] was removed" against [states], the converged states of the
    prefixes to study on [model]'s network as it stands, with their
    touched sets drained (e.g. {!Qrmodel.simulate_all}'s, or a serve
    snapshot's, which may track prefixes beyond the model's).  Returns the link's half-session
    count ([0]: the ASes share no session, and the diff is empty) and
    the diff, its changes in [states] order.

    Only the prefixes whose states the link can change are
    re-simulated.  A deny on half-session [(n, s)] only empties the
    receiver's mirror slot, and under a total preference order (the
    engine's lexicographic minimum, first in RIB-In order winning ties)
    dropping a candidate that is not the best changes nothing.  So a
    prefix crosses the link when a receiver's best arrived over one of
    {!link_sessions}, when its state is not current (it did not
    converge, or its {!Simulator.Engine.generation} is behind the net's,
    as after a duplication: its bests may be stale), or
    always when the net's MED is {!Simulator.Decision.Same_neighbor}
    with [Med] among its steps (RFC 3345: no total order).  The link is
    denied on those prefixes only ({!disable_as_link}), each is
    re-converged from its state ({!Qrmodel.resimulate}: warm, cold or
    verified as [RD_WARM] says) and compared with it
    ({!changed_ases}).  Finally, also on an exception (a simulation that
    failed after the pool's retry raises), the denies it placed are
    lifted and those prefixes' touched sets drained, so the
    network is left as it was and [states] stay its converged states.
    Mutates the network in between: the caller must hold off every
    other reader and writer (the query service runs it under its
    snapshot's writer lock). *)

val pp_diff : Format.formatter -> diff -> unit
