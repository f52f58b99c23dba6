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

val nodes_selecting_at :
  Simulator.Net.t ->
  Simulator.Engine.state ->
  Asn.t ->
  int array ->
  tail_at:int ->
  int list
(** [nodes_selecting_at net st asn arr ~tail_at] is
    [nodes_selecting net st asn (Array.sub arr tail_at ...)] without
    materializing the suffix — for callers walking every suffix of one
    path. *)

val nodes_receiving :
  Simulator.Net.t -> Simulator.Engine.state -> Asn.t -> int array ->
  (int * int list) list
(** [(node, sessions)] for quasi-routers receiving the tail in their
    RIB-In, with the session indices delivering it. *)

val classify :
  Simulator.Net.t -> Simulator.Engine.state -> Aspath.t -> verdict
(** Grade one observed path against a converged simulation of its
    prefix.  A path whose head AS has no quasi-routers is
    {!No_rib_in}.  A single-hop path (the observing AS originates) is a
    {!Rib_out} match by definition. *)

val eliminated_at :
  Simulator.Net.t ->
  Simulator.Engine.state ->
  Aspath.t ->
  Simulator.Decision.step option
(** For a path that is received but not selected anywhere: the earliest
    decision step (over the AS's quasi-routers, best grade wins) at
    which the observed route dies.  [None] when the path is selected
    somewhere or not received at all. *)
