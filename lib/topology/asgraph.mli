(** Undirected AS-level graphs.

    Nodes are ASNs; an edge between two ASes means the data shows them
    exchanging routes directly (paper §3.1: "if two ASes are next to each
    other on a path we assume that they have an agreement to exchange
    data").  The structure is persistent (applicative): operations return
    new graphs. *)

open Bgp

type t

val empty : t

val add_node : t -> Asn.t -> t

val add_edge : t -> Asn.t -> Asn.t -> t
(** Adds both endpoints as needed.  Self-loops are ignored. *)

val remove_node : t -> Asn.t -> t
(** Removes the node and all incident edges; no-op if absent. *)

val remove_edge : t -> Asn.t -> Asn.t -> t

val mem_node : t -> Asn.t -> bool

val mem_edge : t -> Asn.t -> Asn.t -> bool

val neighbors : t -> Asn.t -> Asn.Set.t
(** Empty set if the node is absent. *)

val degree : t -> Asn.t -> int

val nodes : t -> Asn.t list
(** Sorted. *)

val node_set : t -> Asn.Set.t

val num_nodes : t -> int

val num_edges : t -> int

val edges : t -> (Asn.t * Asn.t) list
(** Each undirected edge once, as [(a, b)] with [a < b]; sorted. *)

val fold_nodes : (Asn.t -> 'a -> 'a) -> t -> 'a -> 'a

val fold_edges : (Asn.t -> Asn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Each undirected edge once, with [a < b]. *)

val of_edges : (Asn.t * Asn.t) list -> t

val is_clique : t -> Asn.Set.t -> bool
(** True iff every pair of distinct nodes in the set is connected. *)

val connected_component : t -> Asn.t -> Asn.Set.t
(** BFS component of a node; empty set if the node is absent. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node count, edge count, max degree. *)
