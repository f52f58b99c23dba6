(** Replay a churn stream against a live model, reconverging warm.

    The driver keeps a per-prefix {!Simulator.Warm.table} of engine
    states plus the current originator set of every tracked prefix.
    Each event is translated into per-prefix mutations the warm-start
    machinery understands — export denies with touched-set bookkeeping
    for session/link state, originator-set changes for announce /
    withdraw / hijack — and only the affected prefixes are reconverged,
    in one {!Simulator.Warm.converge} batch.
    Structural network mutations are never performed, so the generation
    counter stands still and warm resumption survives the whole
    stream.

    Failure containment: the pool isolates and retries per-prefix
    faults, and a tracked prefix left without a converged state (its
    reconvergence failed, or did not converge) is {e quarantined}, by
    {!Simulator.Warm.converge}'s rule.  The replay continues, and the
    prefix is retried cold on every subsequent event until it recovers.
    A poisoned event therefore degrades one prefix instead of killing
    the replay.

    Warm behaviour is {!Simulator.Warm.converge}'s, under the ambient
    {!Simulator.Runtime.warm} mode: [Off] replays every affected prefix
    cold, [On] resumes from the cache, [Verify] resumes and re-runs
    cold, comparing the two states (a mismatch counts as a divergence
    and the cold state wins).  The pool worker count is
    {!Simulator.Runtime.jobs}.

    Pollution counts are control-plane and per-prefix: a sub-prefix
    hijack is a new, independent prefix (longest-match forwarding is
    out of scope), and an AS is polluted when one of its selected
    routes for the hijacked prefix terminates at the attacker. *)

open Bgp

(** Event classes, the metrics granularity.  [Hijack] events split by
    effect: announcing a prefix someone already originates is a MOAS
    conflict, announcing a fresh more-specific is a sub-prefix
    hijack. *)
type cls =
  | Cannounce
  | Cwithdraw
  | Csession
  | Clink
  | Chijack_sub
  | Chijack_moas

val cls_name : cls -> string
(** [announce], [withdraw], [session], [link], [hijack_sub],
    [hijack_moas]. *)

type t

type persist
(** Frozen driver state — the tracked prefixes with their originator
    sets, and down sessions/links with the exact export denies they
    placed — captured by {!persist} and handed back to {!create} via
    [?resume], together with the driver's {!states}.  A serve snapshot
    carries one so churn streams may span multiple [apply] calls: a
    [Session_up] / [Link_restore] / [Hijack_end] whose matching
    down/hijack happened in an earlier call still finds it.  The
    quarantine needs no field: a tracked prefix missing from {!states}
    holds no converged state in the successor either, so it stays
    quarantined there and is retried on the successor's first event. *)

val create :
  ?states:(Prefix.t * Simulator.Engine.state) list ->
  ?resume:persist ->
  Asmodel.Qrmodel.t ->
  t
(** A driver over [model].  [states] seeds the cache (e.g. from a
    {e serve} snapshot — prefixes beyond the model's get their
    originators from the state itself); without it every model prefix
    is simulated cold in one {!Simulator.Warm.converge} batch first
    (counted in [warm.cold]).  [resume] seeds the tracking / origin /
    down tables from a previous driver's {!persist} instead of the
    model's prefix list, so paired events split across drivers still
    match up. *)

val persist : t -> persist
(** Capture the driver state a successor needs ([create ?resume]).
    The capture is immutable: later mutations of this driver do not
    leak into it. *)

val rollback_net : t -> unit
(** Reverse-apply every export deny/allow this driver placed on the
    shared net (creation-time seeding from [?resume] is {e not}
    undone — those denies belong to the previously published state).
    For the failure path: a replay that raised mid-stream left the net
    ahead of the still-published snapshot; rolling back restores it
    exactly.  The driver must be discarded afterwards. *)

type event_report = {
  event : Event.t;
  cls : cls;
  prefixes : int;  (** prefixes reconverged by this event *)
  engine_events : int;  (** node activations across those runs *)
  warm : int;  (** runs that resumed from the cache *)
  cold : int;
  ases_shifted : int;
      (** ASes whose selected path set changed, summed over prefixes.
          Found from per-node best paths: only an AS owning a node whose
          best path changed is compared, so the count costs O(nodes)
          per reconverged prefix, not a pass over every AS. *)
  polluted : int;
      (** hijack events: ASes whose selected route for the hijacked
          prefix terminates at the attacker *)
  quarantined : Prefix.t list;  (** entered quarantine on this event *)
  recovered : Prefix.t list;  (** left quarantine on this event *)
  wall_s : float;
}

val apply : t -> Event.t -> event_report
(** Apply one (already validated) event.  Unknown sessions, duplicate
    downs, redundant announces and the like are no-ops with an empty
    report — never errors.  Quarantined prefixes are retried (cold)
    alongside the event's own prefixes. *)

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

type report = {
  events : int;  (** events applied *)
  rejected : int;  (** events dropped by {!Event.normalize} *)
  classes : (cls * class_stats) list;  (** only classes that occurred *)
  reconvergences : int;
  retried : int;  (** pool tasks recovered by the transparent retry *)
  failed : int;  (** pool tasks still failing after retry *)
  quarantine : Prefix.t list;  (** still quarantined at the end *)
  recovered : int;  (** quarantine exits over the whole run *)
  divergences : int;
      (** verify-mode warm/cold mismatches in this driver's
          reconvergence batches *)
  wall_s : float;
}

val run :
  ?on_event:(event_report -> unit) ->
  Asmodel.Qrmodel.t ->
  Event.t list ->
  t * report
(** Normalize the stream against the model, build a driver, apply every
    surviving event, then give still-quarantined prefixes one final
    cold retry.  Deterministic up to wall-clock fields: same model,
    same stream, same warm mode — same counts, and the same
    {!fingerprint} of the returned driver. *)

val report : t -> rejected:int -> report
(** The accumulated totals of a driver (for callers stepping {!apply}
    themselves).  It hashes no state: compare final states with
    {!fingerprint}. *)

val retry_quarantined : t -> Prefix.t list
(** One cold retry pass over the quarantine; returns the prefixes that
    recovered. *)

val states : t -> (Prefix.t * Simulator.Engine.state) list
(** Cached converged states in tracking order (model prefixes first,
    then announced/hijacked extras); quarantined prefixes are absent. *)

val quarantined : t -> Prefix.t list

val tracked : t -> Prefix.t list

val origins : t -> Prefix.t -> Asn.t list
(** Current originator ASes of a tracked prefix (sorted; [] when
    untracked or fully withdrawn). *)

val fingerprint : t -> int
(** Order-independent hash over every tracked prefix's routing-content
    fingerprint — the replay-determinism and warm-vs-cold comparison
    key. *)

val pp_report : Format.formatter -> report -> unit
