(** Frozen query-service snapshots: a refined model plus the converged
    engine state of every model prefix, computed once over the
    {!Simulator.Pool} and then treated as immutable.

    Queries read the cached states; they never re-simulate from
    scratch.  What-if queries do mutate the underlying network, but
    only through {!exclusive}: a dedicated executor thread (created in
    {!build}, in the builder's domain) runs every mutation, ordered
    with the submitting query by the executor hand-off, so RD_CHECK's
    race detector sees no unordered write — and the exact save/restore in {!Asmodel.Whatif} returns the network to its
    published state before the next query runs.

    A {!store} is the atomic-swap publication point: readers grab the
    current snapshot with one atomic load; {!publish} installs a
    replacement and retires the previous snapshot's executor. *)

open Bgp

type t

val build : Asmodel.Qrmodel.t -> t
(** Simulate every model prefix over the pool
    ({!Asmodel.Qrmodel.simulate_all}), cache the converged states, and
    precompute the baseline selected-path snapshot what-if diffs
    compare against. *)

val of_states :
  ?replay:Stream.Replay.persist ->
  Asmodel.Qrmodel.t ->
  (Bgp.Prefix.t * Simulator.Engine.state) list ->
  t
(** A snapshot over already-converged states (no simulation) — the
    churn-replay path: the replay driver reconverged prefixes
    incrementally and the result becomes the next published snapshot.
    The state list may extend beyond the model's prefixes (announced /
    hijacked extras).  [replay] is the driver state the replay ended
    with; the next {!Churn.apply} resumes from it so down/up pairs may
    span apply calls. *)

val resimulate :
  t -> (Prefix.t * Simulator.Engine.state) list * Simulator.Pool.stats
(** Reconverge every cached prefix against the live network through
    {!Simulator.Warm.simulate} — resuming from this snapshot's state
    under the ambient {!Simulator.Runtime.warm} mode — over the pool
    ({!Simulator.Runtime.jobs} workers), in {!states} order.  Each
    prefix's originators come from its cached state, so prefixes a
    churn replay added beyond the model's keep theirs.  The touched
    sets are left as they are; call it inside {!exclusive}.  Shared by
    {!rebuild} and the what-if query. *)

val rebuild : t -> t
(** {!resimulate} against the (possibly churn-mutated) network, drain
    the touched sets, and return a fresh snapshot ready to {!publish}.
    Run it through {!exclusive} so it serializes with what-if mutation;
    publish {e outside} the exclusive section (publishing retires this
    snapshot's executor, which must not be joined from its own
    thread). *)

val model : t -> Asmodel.Qrmodel.t

val states : t -> (Prefix.t * Simulator.Engine.state) list
(** In model-prefix order. *)

val state : t -> Prefix.t -> Simulator.Engine.state option

val baseline : t -> Asmodel.Whatif.snapshot

val replay : t -> Stream.Replay.persist option
(** The churn-replay driver state this snapshot was published with
    ([None] for fresh builds): origins per tracked prefix and down
    sessions/links with their denies, carried so later churn streams
    can restore them. *)

val converged : t -> bool
(** Every cached state converged. *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Run [f] on the snapshot's executor thread and return its result;
    serializes with every other [exclusive] caller.  All what-if
    mutation happens here.  Raises [Invalid_argument] after
    {!retire}. *)

val retire : t -> unit
(** Stop the executor thread (idempotent).  Queries already queued
    finish first. *)

(** {2 Atomic swap} *)

type store

val store : unit -> store
(** An empty publication point. *)

val publish : store -> t -> unit
(** Atomically install a snapshot as the current one and retire the
    snapshot it replaces (if any). *)

val current : store -> t option
(** One atomic load; no locking on the read path. *)

val locked : store -> (unit -> 'a) -> 'a
(** Run [f] under the store's churn mutex.  Every read-modify-publish
    transaction ({!Churn.apply} / {!Churn.reload}) runs inside it, so
    concurrent writers serialize on the {e store} and the second one
    builds from the first one's published snapshot instead of silently
    overwriting it.  Readers ({!current}) never take the lock. *)
