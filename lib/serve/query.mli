(** The query evaluator: answers protocol requests against a frozen
    {!Snapshot}.

    Path and catchment queries only read the cached converged states.
    What-if queries call {!Asmodel.Whatif.eval} on the snapshot's
    model and cached states: it re-converges, warm from the cached
    states, only the prefixes whose best routes cross the link, diffs
    them and restores the network exactly.  The call runs in the
    calling thread inside {!Snapshot.exclusive}, over
    {!Simulator.Runtime.jobs} pool workers.

    Metrics: [serve.queries], [serve.deadline_misses],
    [serve.latency_us] (histogram), [serve.whatif_resume_hits] (warm
    resumes actually used by what-if deltas). *)

val eval : Snapshot.t -> Protocol.request -> (Protocol.payload, string) result
(** Evaluate one request.  A what-if on a retired snapshot raises
    {!Snapshot.Retired}. *)

val eval_timed :
  ?deadline_ms:int ->
  Snapshot.t ->
  Protocol.request ->
  Protocol.response
(** {!eval} wrapped with latency measurement, deadline accounting
    ([deadline_ms] defaults to {!Simulator.Runtime.deadline_ms}; [0]
    disables) and the serve metrics.  Exceptions become [Error]
    responses, except {!Snapshot.Retired}, which propagates so the
    caller can retry on the current snapshot. *)
