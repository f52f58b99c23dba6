(** Zero-downtime snapshot rebuild-and-swap under churn.

    The serving loop: queries read the current snapshot via one atomic
    load while churn is applied {e off to the side} — the event replay
    (or a plain warm rebuild) runs inside the current snapshot's
    {!Snapshot.exclusive} section, serialized with in-flight what-if
    queries, and the resulting snapshot is atomically
    {!Snapshot.publish}ed before that section ends, so no write on the
    old snapshot can follow the swap.  In-flight reads keep answering
    from the snapshot they loaded (its caches are immutable); a write
    on it is refused with {!Snapshot.Retired}, so a swap drops
    nothing. *)

val apply :
  Snapshot.store ->
  Stream.Event.t list ->
  (Stream.Replay.report, string) result
(** Normalize and replay a churn stream against the current snapshot's
    model, reconverging affected prefixes warm from its cached states,
    then publish the post-churn snapshot.  The replay driver resumes
    from the snapshot's persisted state ({!Snapshot.replay}), so churn
    streams compose across calls: a [Session_up] / [Link_restore] /
    [Hijack_end] whose matching down arrived in an earlier [apply]
    still restores it.  Concurrent [apply]/{!reload} callers serialize
    on the store ({!Snapshot.locked}); the later one builds on the
    earlier one's published snapshot, nothing is discarded.  [Error]
    when no snapshot is published or the replay raised mid-stream — in
    that case the denies it had already placed are rolled back and the
    previous snapshot stays published and consistent. *)

val reload : Snapshot.store -> (Protocol.payload, string) result
(** Rebuild the current snapshot ({!Snapshot.rebuild}, warm unless
    [RD_WARM=off]) and publish the replacement; the [Reloaded] payload
    reports prefix count, warm-resume hits and build seconds.  Counted
    in the [serve.reloads] / [serve.reload_resume_hits] metrics. *)
