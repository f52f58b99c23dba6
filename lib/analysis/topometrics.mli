(** Topology-fidelity metric battery.

    *Beyond Node Degree* argues that degree distribution alone is a
    weak fidelity test for synthetic AS topologies; this module
    implements the richer battery it recommends over
    {!Topology.Asgraph.t} — degree CCDF + power-law exponent,
    assortativity, clustering, rich-club connectivity, k-coreness,
    sampled betweenness and spectral distance — and reduces any two
    worlds to a typed per-metric report with one normalized similarity
    score.  Everything is deterministic (sampled BFS sources and power
    -iteration start vectors are index-derived, not random), so equal
    graphs always score exactly 1.0. *)

type summary = {
  nodes : int;
  edges : int;
  avg_degree : float;
  max_degree : int;
  degree_ccdf : (int * float) list;
      (** [(d, fraction of nodes with degree >= d)], ascending [d]. *)
  powerlaw_alpha : float;
      (** Discrete MLE power-law exponent fit with [x_min = 1]
          (Clauset-Shalizi-Newman); 0 on an edgeless graph. *)
  assortativity : float;
      (** Pearson degree correlation over edge endpoints (Newman);
          negative means hubs attach to low-degree nodes, as on the
          Internet. *)
  clustering : float;  (** Average local clustering coefficient. *)
  rich_club : float;
      (** Edge density among the [rich_club_k] highest-degree nodes
          (the paper's tier-1 clique scores 1.0). *)
  rich_club_k : int;
  coreness : (int * int) list;  (** [(coreness, node count)] ascending. *)
  max_core : int;
  betweenness_deciles : float array;
      (** 11 deciles (0th..100th percentile) of max-normalized sampled
          Brandes betweenness. *)
  betweenness_samples : int;
  spectrum : float array;
      (** Top-k adjacency eigenvalues by magnitude, via power iteration
          with deflation. *)
}

type metric = {
  name : string;
  a : float;  (** representative scalar of the first world *)
  b : float;  (** representative scalar of the second world *)
  similarity : float;  (** in [0,1]; 1.0 iff the metric agrees exactly *)
}

type report = { metrics : metric list; score : float }
(** [score] is the mean of the per-metric similarities, in [0,1]. *)

val summarize :
  ?betweenness_samples:int ->
  ?spectrum_k:int ->
  ?rich_club_k:int ->
  Topology.Asgraph.t ->
  summary
(** Computes the full battery.  Defaults: 64 betweenness BFS sources
    (taken every n/64-th node in ASN order), top-5 eigenvalues,
    rich-club over the top-10 degrees. *)

val compare : summary -> summary -> report
(** Symmetric up to the [a]/[b] column labels; [compare s s] has every
    similarity and the overall score exactly [1.0]. *)

val pp_summary : Format.formatter -> summary -> unit
val pp_report : Format.formatter -> report -> unit
