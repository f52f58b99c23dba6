(** The ground-truth router-level world and its observation.

    Builds a {!Simulator.Net.t} from a generated topology: full-mesh
    iBGP inside every AS, eBGP sessions per router link with Gao-Rexford
    import preferences and export rules, hot-potato IGP costs — plus the
    configured dose of non-conventional ("weird") policies: deviant
    per-session preferences and per-prefix selective announcements.

    Observation then simulates every prefix and dumps the routes seen at
    the observation points, yielding the data set the model-building
    pipeline consumes.  The pipeline never sees anything else of the
    world. *)

open Bgp

type world = {
  topo : Gentopo.t;
  net : Simulator.Net.t;
  node_of_router : (Asn.t * int, int) Hashtbl.t;  (** (asn, router) → node id *)
  obs : (int * Rib.obs_point) list;  (** observation node, its identity *)
  prefix_plan : (Prefix.t * Asn.t * int list) list;
      (** every prefix of the world with its origin AS and the router
          nodes anchoring it.  Prefix 0 of an AS is anchored at all of
          its routers; further prefixes at random subsets, which makes
          different prefixes of one AS exit differently (hot potato). *)
  rng : Random.State.t;  (** generator state after construction *)
}

val build : Conf.t -> world
(** Deterministic in [conf.seed]. *)

val originators : world -> Asn.t -> int list
(** Every router of the AS (anchors of its prefix 0). *)

val simulate : world -> Prefix.t -> Simulator.Engine.state
(** Ground-truth routing for any prefix of the plan.  Raises
    [Not_found] for prefixes outside the plan. *)

val observe : world -> Rib.t
(** Simulate all prefixes and collect the observation points' RIBs.
    Each prefix runs in a scoped cold run
    ({!Simulator.Engine.with_cold}) that reads the observation points'
    paths before its state is emptied, so no converged state outlives
    its prefix.  The dump is assembled in dump order (observation point,
    then prefix, as {!Rib.entries} lists it), so {!Rib.of_entries}
    finds it sorted; entries with equal paths share one path value.
    The result does not depend on the job count or on transient
    faults. *)

val observation_points : world -> Rib.obs_point list

val pp_summary : Format.formatter -> world -> unit
