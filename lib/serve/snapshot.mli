(** Frozen query-service snapshots: a refined model plus the converged
    engine state of every model prefix, computed once over the
    {!Simulator.Pool} and then treated as immutable.

    Queries read the cached states; they never re-simulate from
    scratch.  What-if queries, churn replay and reloads do mutate the
    underlying network, but only through {!exclusive}: the caller's
    thread runs the write under a writer mutex that {!build} creates
    and every successor snapshot shares, so no two writes on one
    network overlap, and the exact revert in {!Asmodel.Whatif} returns
    the network to its published state before the next write runs.

    A {!store} is the atomic-swap publication point: readers grab the
    current snapshot with one atomic load; {!publish} installs a
    replacement and retires the previous snapshot, which then refuses
    writes. *)

open Bgp

type t

val build : Asmodel.Qrmodel.t -> t
(** Simulate every model prefix over the pool
    ({!Asmodel.Qrmodel.simulate_all}) and cache the converged states.
    Starts a new lineage with its own writer mutex. *)

val of_states :
  ?replay:Stream.Replay.persist ->
  t ->
  (Bgp.Prefix.t * Simulator.Engine.state) list ->
  t
(** The successor of a snapshot over already-converged states (no
    simulation) — the churn-replay path: the replay driver reconverged
    prefixes incrementally and the result becomes the next published
    snapshot.  It keeps the predecessor's model and shares its writer
    mutex.  The state list may extend beyond the model's prefixes
    (announced / hijacked extras).  [replay] is the driver state the
    replay ended with; the next {!Churn.apply} resumes from it so
    down/up pairs may span apply calls. *)

val rebuild : t -> t * int
(** Re-converge every cached state against the (possibly
    churn-mutated) network ({!Asmodel.Qrmodel.resimulate}: each resumes
    from its cached state under the ambient {!Simulator.Runtime.warm}
    mode), drain the touched sets, and return the successor snapshot
    ({!of_states}) ready to {!publish}, with the number of prefixes
    that resumed.  Raises when a simulation fails after the pool's
    retry.  Run it, and the publish, inside {!exclusive} so no write
    slips in between. *)

val model : t -> Asmodel.Qrmodel.t

val states : t -> (Prefix.t * Simulator.Engine.state) list
(** In model-prefix order. *)

val state : t -> Prefix.t -> Simulator.Engine.state option

val replay : t -> Stream.Replay.persist option
(** The churn-replay driver state this snapshot was published with
    ([None] for fresh builds): origins per tracked prefix and down
    sessions/links with their denies, carried so later churn streams
    can restore them. *)

val converged : t -> bool
(** Every cached state converged. *)

exception Retired
(** Raised by {!exclusive} on a retired snapshot.  The write never
    ran; load the store's current snapshot and try again. *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Run [f] in the calling thread under the lineage's writer mutex and
    return its result; serializes with every [exclusive] caller on this
    snapshot, its predecessors and its successors.  All network
    mutation happens here.  Under [RD_CHECK=on] the section acquires
    and releases the lineage's happens-before channel, so writers in
    different domains stay ordered.  Raises {!Retired} once the
    snapshot is retired, checked after the mutex is taken.  [f] must
    not call [exclusive] on the same lineage: the mutex is not
    re-entrant. *)

val retire : t -> unit
(** Mark the snapshot retired (idempotent): later {!exclusive} calls
    raise {!Retired}.  Takes no lock, so {!publish} may run inside
    {!exclusive}.  Reads of its cached states keep working. *)

(** {2 Atomic swap} *)

type store

val store : unit -> store
(** An empty publication point. *)

val publish : store -> t -> unit
(** Atomically install a snapshot as the current one and retire the
    snapshot it replaces (if any).  May be called inside {!exclusive}. *)

val current : store -> t option
(** One atomic load; no locking on the read path. *)

val locked : store -> (unit -> 'a) -> 'a
(** Run [f] under the store's churn mutex.  Every read-modify-publish
    transaction ({!Churn.apply} / {!Churn.reload}) runs inside it, so
    concurrent writers serialize on the {e store} and the second one
    builds from the first one's published snapshot instead of silently
    overwriting it.  Readers ({!current}) never take the lock. *)
