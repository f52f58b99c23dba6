(** Synthetic AS- and router-level topologies.

    Generates the structural half of the ground-truth world: an AS
    graph with Gao-Rexford relationships, several border routers per
    transit AS, possibly several router-level links per AS adjacency,
    and router coordinates from which IGP distances (hot-potato
    inputs) derive.  The AS-level structure comes from one of the
    {!Family.t} generators — the paper's tiered hierarchy (tier-1
    clique, tier-2, tier-3, stubs), Waxman geometric, GLP preferential
    attachment, or a datacenter fattree — all realized into the same
    [t] shape.  Everything is driven by the seed in {!Conf.t}. *)

open Bgp

type tier = T1 | T2 | T3 | Stub

type rel = Provider | Peer | Sibling
(** Ground-truth relationship of a link's [a] side towards its [b] side:
    [Provider] means [a] is the provider of [b]. *)

type link = {
  a : Asn.t;
  a_router : int;  (** router index inside [a] *)
  b : Asn.t;
  b_router : int;
  rel : rel;
}

type t = {
  conf : Conf.t;
  tiers : tier Asn.Map.t;
  routers : int Asn.Map.t;  (** routers per AS *)
  links : link list;
  coords : (int * int) array Asn.Map.t;
      (** per-router plane coordinates; IGP cost between two routers of
          an AS is their Manhattan distance. *)
}

val of_family : Family.t -> Conf.t -> Random.State.t -> t
(** [of_family family conf rng] generates a world of [family] using
    [conf] purely as the size/policy preset ([conf.family] is ignored
    and overwritten with [family] in the result, so provenance is
    always what actually ran).  Non-paper families share one
    realization pass: family code decides tiers and
    relationship-labelled AS adjacencies; router counts, router-pair
    selection, parallel links and IGP coordinates follow the same Conf
    knobs as the paper family. *)

val ases : t -> Asn.t list
(** All ASNs, ascending. *)

val tier_of : t -> Asn.t -> tier

val as_graph : t -> Topology.Asgraph.t
(** The true AS-level graph (one edge per adjacency). *)

val igp_cost : t -> Asn.t -> int -> int -> int
(** [igp_cost t asn r1 r2]: Manhattan distance between two routers of
    [asn]. *)

val true_rel :
  t -> Asn.t -> Asn.t -> [ `Provider | `Customer | `Peer | `Sibling ] option
(** Ground-truth relationship of the first AS towards the second, if
    they are adjacent ([`Provider]: the first provides transit for the
    second).  Parallel links share the relationship.  A test oracle:
    the tests check on every family that each link reads as a
    provider/customer, peer or sibling pair from both ends, the
    relationships ground truth routes by. *)

val pp_summary : Format.formatter -> t -> unit
