(** Match metrics between simulated and observed routing (paper §4.2).

    For an observed AS-path at an AS, the paper grades how well the
    model explains it:

    - {b RIB-Out match}: some quasi-router of the AS selected a route
      with exactly the observed path as its best route;
    - {b potential RIB-Out match}: some quasi-router received it and the
      route survives the decision process until the very last tie-break
      ("lowest neighbour IP") — a mismatch by luck, not by policy;
    - {b RIB-In match}: some quasi-router received it — the upper bound
      on achievable prediction;
    - {b no RIB-In match}: the path never reaches the AS in the model.

    Paths handed to this module are "full" observed paths: element 0 is
    the AS where the observation is evaluated. *)

open Bgp

type verdict = Rib_out | Potential_rib_out | Rib_in | No_rib_in

val verdict_to_string : verdict -> string

val verdict_rank : verdict -> int
(** [0] = {!Rib_out} (best) … [3] = {!No_rib_in}; for aggregation. *)

val nodes_selecting :
  Simulator.Net.t -> Simulator.Engine.state -> Asn.t -> int array -> int list
(** Quasi-routers of the AS whose best route carries exactly this tail
    (empty tail: the originated route). *)

val selects_at :
  Simulator.Net.t ->
  Simulator.Engine.state ->
  Asn.t ->
  int array ->
  tail_at:int ->
  bool
(** [selects_at net st asn arr ~tail_at] is
    [nodes_selecting net st asn (Array.sub arr tail_at ...) <> []]
    without materializing the suffix or the node list — for walking
    every suffix of one path. *)

val nodes_receiving :
  Simulator.Net.t -> Simulator.Engine.state -> Asn.t -> int array ->
  (int * int list) list
(** [(node, sessions)] for quasi-routers receiving the tail in their
    RIB-In, with the session indices delivering it. *)

type grade = {
  verdict : verdict;
  eliminated_at : Simulator.Decision.step option;
      (** {!Potential_rib_out} and {!Rib_in}: the step at which the
          observed route dies at the quasi-router where it gets
          furthest; [None] otherwise *)
  blocking_as : Asn.t option;
      (** not {!Rib_out}: the AS closest to the origin whose suffix of
          the path no quasi-router selects *)
}

val grade : Simulator.Net.t -> Simulator.Engine.state -> Aspath.t -> grade
(** Grade one observed path against a converged simulation of its
    prefix, with one elimination fold.  A single-hop path is a
    {!Rib_out} match when the observing AS selects its own route. *)

(** {2 The grading walk}

    The one grading of a RIB against a model; {!Evaluation.Predict},
    {!Verify} and {!Evaluation.Agreement} fold it.  Each prefix is
    graded once: against its state in [states] if there is one, else,
    if the model originates it, inside a scoped cold run
    ({!Simulator.Engine.with_cold}) in a {!Simulator.Pool} task, whose
    state is never stored.  A prefix without a converged state
    (truncated, diverged, or failed after the pool's retry) is
    {!Unresolved}, which is never a mismatch; one the model does not
    originate is {!Unmodelled}. *)

type outcome = Graded of grade | Unresolved | Unmodelled

type observed = {
  path : Aspath.t;
  entries : int;  (** RIB entries of the prefix that carry the path *)
  outcome : outcome;
}

type walk = {
  prefixes : (Prefix.t * observed list) list;
      (** in prefix order, each with its distinct paths in the order of
          their first entry *)
  pool : Simulator.Pool.stats;  (** the batch of scoped runs *)
}

val walk :
  Asmodel.Qrmodel.t ->
  states:(Prefix.t, Simulator.Engine.state) Hashtbl.t ->
  Rib.t ->
  walk
(** [states] is only read.  The walk is the same for every job
    count. *)
