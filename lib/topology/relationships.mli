(** AS-relationship inference (baseline of paper §3.3).

    The paper's single-router-with-policies baseline relies on inferred
    customer-provider and peer-peer relationships obtained with "a simple
    heuristic ... utilizing the valley-free assumption [15,16,18]": links
    between level-1 ASes are declared peering, and customer-provider
    edges are inferred iteratively from the observed paths (Gao-style
    top-of-path voting).

    These inferences are deliberately imperfect — that imperfection is
    the paper's motivation for being policy-agnostic — so this module
    aims for the standard heuristic, not ground truth. *)

open Bgp

type kind =
  | Customer_of  (** first AS is a customer of the second *)
  | Provider_of  (** first AS is a provider of the second *)
  | Peer
  | Sibling
  | Unknown

val flip : kind -> kind
(** Relationship seen from the other endpoint. *)

type t
(** An inferred relationship map over the edges of a graph. *)

val infer :
  ?level1:Asn.Set.t ->
  ?sibling_ratio:float ->
  ?peer_degree_ratio:float ->
  Asgraph.t ->
  Aspath.t list ->
  t
(** [infer g paths] votes along every path: the highest-degree AS of the
    path is its top; edges on the origin side of the top vote
    "left AS provides for right AS", edges on the observation side vote
    the other way.  An edge with substantial votes in both directions
    (minority/majority >= [sibling_ratio], default 0.5) is a sibling;
    an edge whose every appearance is adjacent to the top of its path,
    with endpoint degrees within [peer_degree_ratio] (default 10.0) and
    without a clear provider direction, is a peer; level-1 x level-1
    edges are always peers.  Remaining voted edges become
    customer/provider; unvoted edges are unknown. *)

val rel : t -> Asn.t -> Asn.t -> kind
(** [rel t a b] is the relationship of [a] with respect to [b]
    ([Unknown] for absent edges). *)

type counts = {
  customer_provider : int;
  peer : int;
  sibling : int;
  unknown : int;
}

val counts : t -> counts

val pp_counts : Format.formatter -> counts -> unit

val valley_free : t -> Aspath.t -> bool
(** True iff the path (in announcement order: origin to observer) climbs
    through customer->provider edges, crosses at most one peer edge at
    the top, then descends through provider->customer edges.  Sibling
    and unknown edges are transparent (allowed anywhere), matching the
    usual relaxed definition. *)
