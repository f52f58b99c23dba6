(** The AS-routing model: ASes made of quasi-routers (paper §4.1, §4.5).

    A quasi-router represents a group of routers inside an AS that all
    make the same best-route choice; it does not mirror the physical
    router topology but the logical partitioning of the AS's policy
    rules.  The model is a {!Simulator.Net.t} plus the metadata the
    methodology needs: the AS graph it realizes and the one-prefix-per-AS
    origination plan.

    The initial model has exactly one quasi-router per AS and one eBGP
    session per AS-graph edge, no policies, and quasi-router addresses
    following the paper's scheme (high 16 bits: ASN; low bits: index) so
    the final decision-process tie-break is reproducible. *)

open Bgp

type t = {
  net : Simulator.Net.t;
  graph : Topology.Asgraph.t;
  prefixes : (Prefix.t * Asn.t) list;  (** model prefix and its origin AS *)
}

val initial : Topology.Asgraph.t -> t
(** One quasi-router per AS; one session per edge; no policies;
    decision process = {!Simulator.Decision.model_steps}; prefix per AS
    via {!Bgp.Asn.origin_prefix}. *)

val origin_of : t -> Prefix.t -> Asn.t option

val originators : t -> Prefix.t -> int list
(** All quasi-routers of the prefix's origin AS ([]: unknown prefix). *)

val simulate : ?max_events:int -> t -> Prefix.t -> Simulator.Engine.state
(** Cold converged propagation of one model prefix —
    {!Simulator.Engine.simulate} with the model's originators.  Warm
    re-simulation goes through {!Simulator.Warm.converge}. *)

val simulate_all :
  t -> (Prefix.t * Simulator.Engine.state) list * Simulator.Pool.stats
(** Simulate every model prefix cold in one {!Simulator.Warm.converge}
    batch, in model-prefix order, which drains the touched sets: the
    returned states reflect every policy edit so far, so the first warm
    resume from them replays only later edits.  Raises the exception of
    the first prefix whose simulation failed after the pool's retry. *)

val resimulate :
  t ->
  (Prefix.t * Simulator.Engine.state) list ->
  (Prefix.t * Simulator.Engine.state) list * Simulator.Warm.batch
(** Re-converge each [(prefix, state)] against the live network, in
    one {!Simulator.Warm.converge} batch that resumes each from its
    state under the ambient {!Simulator.Runtime.warm} mode, and drains
    their touched sets.  Returns the new states in list order with the
    batch.  Originators come from each state, so prefixes beyond the
    model's (a churn replay's announcements) keep theirs.  Raises the
    exception of the first prefix whose simulation failed after the
    pool's retry. *)

val quasi_router_count : t -> Asn.t -> int

val quasi_router_histogram : t -> (int * int) list
(** [(k, n)]: [n] ASes have [k] quasi-routers; sorted by [k]. *)

val total_quasi_routers : t -> int

val pp_summary : Format.formatter -> t -> unit
