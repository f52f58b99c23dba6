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

val disable_as_link :
  ?prefixes:Prefix.t list -> Qrmodel.t -> Asn.t -> Asn.t -> int
(** Stop all route exchange between two ASes by denying every prefix in
    [prefixes] (default: every model prefix — pass the served set when
    it differs, e.g. a churned snapshot's) on every session between
    their quasi-routers, in both directions.  Returns the number of
    half-sessions touched; [0] means the ASes share no session.
    Sessions are kept, and the set of denies that pre-existed on those
    half-sessions (e.g. refiner-placed filters) is recorded, so the
    change can be reverted exactly with {!enable_as_link}. *)

val enable_as_link :
  ?prefixes:Prefix.t list -> Qrmodel.t -> Asn.t -> Asn.t -> int
(** Revert a {!disable_as_link} (pass the same [prefixes]): remove the
    per-prefix denies it added on sessions between the two ASes while
    keeping any deny that pre-existed (refiner-placed filters survive
    the round trip).  Returns the number of half-sessions touched.
    Without a matching [disable_as_link] record (none was made, or it
    was already reverted) nothing is touched and the result is [0]. *)

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
