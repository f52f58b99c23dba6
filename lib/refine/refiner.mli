(** Iterative refinement of the AS-routing model (paper §4.3–4.6).

    Starting from the one-quasi-router-per-AS initial model, each
    iteration compares the simulated routing with every observed AS-path
    of the training set, walking each path from its origin towards its
    observation point, and at the first AS with a discrepancy applies
    the paper's actions:

    - a quasi-router that already selects the wanted (suffix) route is
      {e reserved} for it (lowest id first, one observed path per
      quasi-router per prefix);
    - a quasi-router that merely {e receives} it gets policies: the
      desired session is ranked up with a per-prefix MED 0 rule, and
      announcing neighbours of strictly shorter candidate routes get
      per-prefix egress filters (same-length rivals are left alone —
      MED settles them — to preserve diversity, §4.6);
    - when every receiving quasi-router is already reserved, one is
      {e duplicated} (same sessions, same policies on both sides) and
      the copy is policied instead;
    - when the wanted route reaches no quasi-router at all but the
      announcing neighbour AS selects its sub-path, any egress filter
      blocking the prefix on sessions towards this AS is {e deleted}
      (§4.6 "filter deletion", Figure 7).

    Prefixes whose model changed are re-simulated and the cycle repeats
    until every observed path is a RIB-Out match or the iteration cap is
    reached (the paper reaches perfect training matches after a small
    multiple of the maximum AS-path length). *)

open Bgp

type ranking =
  | Med_ranking
      (** the paper's choice (§4.6): per-prefix MED 0 on the desired
          session plus egress filters against strictly shorter rivals;
          provably convergent. *)
  | Lpref_ranking
      (** the mechanism the paper tried FIRST and abandoned: per-prefix
          LOCAL_PREF on the desired session.  Because LOCAL_PREF beats
          path length, no filters are needed — but preferring longer
          paths this way creates dispute wheels and the simulations can
          diverge, the §4.6 negative result this option reproduces. *)
  | No_ranking
      (** no ranking rules at all, egress filters only — the ranking
          ablation. *)

type options = {
  max_iterations : int option;
      (** default: [6 * max observed path length + 4]. *)
  max_quasi_routers : int;
      (** per-AS cap on quasi-routers; [1] disables duplication (the
          single-router ablation).  Default: unlimited. *)
  ranking : ranking;  (** default {!Med_ranking}. *)
}

val default_options : options

type iter_stat = {
  iteration : int;  (** 1-based. *)
  matched : int;  (** suffixes RIB-Out-matched at iteration start. *)
  total : int;  (** suffixes to match (constant across iterations). *)
  filters_added : int;
  med_rules_added : int;
  duplications : int;
  filter_deletions : int;
  prefixes_changed : int;
  quarantined : int;
      (** prefixes in quarantine at this iteration: their simulation was
          {!Simulator.Engine.Truncated}, [Diverged] or failed outright
          (no converged state, {!Simulator.Warm.quarantined}), so they
          were withheld from policy mutation (mutating against a
          partial RIB would bake wrong filters in).  Every later
          iteration's batch retries them; a converging retry lifts the
          quarantine. *)
  pool : Simulator.Pool.stats;
      (** the iteration's pre-simulation batch (its dirty and
          quarantined prefixes): prefixes re-simulated, engine events,
          budget-truncated states, wall time. *)
}

type result = {
  model : Asmodel.Qrmodel.t;  (** the refined model (mutated in place). *)
  iterations : int;
  converged : bool;  (** every training suffix is a RIB-Out match. *)
  matched : int;
  total : int;
  history : iter_stat list;  (** chronological. *)
  states : Simulator.Warm.table;
      (** final simulation per training prefix (fresh states for every
          prefix, including unchanged ones).  Prefixes whose final
          simulation failed persistently have {e no} entry — consumers
          must treat a missing state as unresolved, not raise. *)
  unstable_prefixes : int;
      (** prefixes whose final simulation was truncated or diverged
          instead of converging — always [0] with {!Med_ranking},
          possibly positive with {!Lpref_ranking} (the §4.6
          divergence). *)
  quarantined_prefixes : int;
      (** prefixes without a usable converged final state: the
          [unstable_prefixes] plus those whose simulation failed even
          after the pool's retry.  Their training suffixes count as
          unmatched. *)
  pool : Simulator.Pool.stats;
      (** cumulative simulation statistics over the whole refinement:
          every per-iteration pre-simulation batch plus the final
          re-simulation pass. *)
}

val refine :
  ?options:options ->
  ?on_iteration:(iter_stat -> unit) ->
  Asmodel.Qrmodel.t ->
  training:Rib.t ->
  result
(** Refine the model against the training data.  The training data must
    already be in model form: one prefix per AS
    ({!Bgp.Rib.collapse_to_origin}) over the model's AS graph (stub
    reduction applied, {!Topology.Extract.reduce}).  Paths containing
    ASes outside the model graph are skipped and counted as unmatched. *)

val training_suffixes : Rib.t -> (Prefix.t * (int array * int array) list) list
(** The work list the refiner matches: for each prefix, every distinct
    suffix of every observed path paired with its tail (the suffix
    minus its leading AS — precomputed because every matching and
    policy step consumes it), sorted shortest (closest to the origin)
    first.  Exposed for inspection and tests. *)
