(** Deterministic churn-scenario generation.

    Like [Netgen.generate], every generator is a pure function
    of the model and an explicit [Random.State.t]: the same model and
    seed produce the same stream, byte for byte, so replay results are
    reproducible and the determinism tests can compare runs.

    Generated streams are already well-formed for the given model
    (known ASes, adjacent pairs, no self links), but callers should
    still pass them through {!Event.normalize} — the replay driver
    does — since streams may also arrive from files or tests. *)

val flap_storm :
  ?sessions:int ->
  ?flaps:int ->
  ?period_ms:int ->
  Asmodel.Qrmodel.t ->
  Random.State.t ->
  Event.t list
(** A session flap storm: [sessions] distinct AS adjacencies (default
    4, clamped to the edge count) each flap [flaps] times (default 3)
    — down, then up half a [period_ms] (default 100) later — with a
    random per-session phase offset so the flaps interleave. *)

val mixed :
  ?events:int -> Asmodel.Qrmodel.t -> Random.State.t -> Event.t list
(** A blend of every event class — paired so the stream is meaningful
    (withdraw then re-announce, down then up, hijack then end) —
    totalling roughly [events] events (default 32). *)

val scenario_names : string list
(** The {!of_name} vocabulary, for CLI listings. *)

val of_name :
  string ->
  (events:int ->
  Asmodel.Qrmodel.t ->
  Random.State.t ->
  Event.t list)
  option
(** Look a scenario up by CLI name ([flap-storm], [depeering],
    [hijack], [moas], [mixed]); [events] scales the scenario size
    where it applies. *)
