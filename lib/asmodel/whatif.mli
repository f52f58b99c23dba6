(** What-if studies on an AS-routing model.

    The paper's motivation (§1) is answering questions like "what if a
    certain peering link was removed".  With a refined model this
    becomes: disable the link, re-simulate, and diff the selected
    routes. *)

open Bgp

type snapshot
(** Selected AS-level paths of every AS for every model prefix. *)

val snapshot :
  ?prefixes:Prefix.t list ->
  ?on_prefix:(int -> int -> unit) ->
  Qrmodel.t ->
  snapshot
(** Simulate the given prefixes (default: all model prefixes) and record
    each AS's set of selected full paths. *)

val of_states :
  Qrmodel.t -> (Prefix.t * Simulator.Engine.state) list -> snapshot
(** Build a snapshot from already-converged states — the serve layer's
    path: it caches per-prefix states and must not re-simulate. *)

val sessions_between : Simulator.Net.t -> Asn.t -> Asn.t -> (int * int) list
(** Every half-session from a quasi-router of the first AS toward one
    of the second, as [(node, session)], in node then session order. *)

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
    out of [placed], so reverting with {!enable_as_link} keeps it. *)

val enable_as_link : Qrmodel.t -> disabled -> unit
(** Revert a {!disable_as_link}: lift exactly the denies it placed.
    Reverting two disables of one link in either order restores the
    deny set from before the first. *)

type change = {
  prefix : Prefix.t;
  ases_changed : Asn.t list;  (** ASes whose selected path set changed *)
  ases_lost : Asn.t list;  (** ASes that lost all routes to the prefix *)
}

type diff = {
  changes : change list;  (** prefixes with any change, sorted *)
  prefixes_affected : int;
  ases_affected : int;  (** distinct ASes changed over all prefixes *)
}

val diff : snapshot -> snapshot -> diff
(** Compare two snapshots, joined by prefix (a full outer join — the
    prefix sets need not match: churn adds and drops prefixes between
    snapshots).  A prefix only in the first snapshot reads as every AS
    losing its routes; one only in the second as every AS gaining
    them. *)

val pp_diff : Format.formatter -> diff -> unit
