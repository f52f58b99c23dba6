(** Observed-RIB data sets.

    A data set is the cleaned union of table dumps from many observation
    points (paper §3.1): each entry says "observation point [op] saw
    prefix [p] with AS-path [path]".  Cleaning normalizes entries the way
    the paper does: AS-path prepending is removed, paths with loops are
    discarded, and the observation AS is guaranteed to be the first hop
    of every path. *)

type obs_point = { op_ip : Ipv4.t; op_as : Asn.t }
(** An observation point: the peering session (identified by the peer
    address) and the AS it lives in.  Several observation points can
    share an AS (30% of observation ASes do in the paper's data). *)

val obs_point_compare : obs_point -> obs_point -> int

type entry = { op : obs_point; prefix : Prefix.t; path : Aspath.t }
(** One cleaned RIB entry.  [path] starts with [op.op_as] and ends with
    the origin AS. *)

type cleaning_stats = {
  raw : int;  (** records before cleaning *)
  dropped_loops : int;  (** paths with a loop after prepending removal *)
  dropped_empty : int;  (** records with an empty AS-path *)
  deduplicated : int;  (** exact (op, prefix, path) duplicates *)
}

type t
(** An immutable data set. *)

val of_records : Mrt.record list -> t * cleaning_stats
(** Clean and index a list of dump records. *)

val to_records : ?time:int -> t -> Mrt.record list
(** Render back to dump records (attributes are defaults; the data set
    only retains what the methodology uses). *)

val of_entries : entry list -> t
(** Build from already-clean entries (deduplicates). *)

val entries : t -> entry list

val size : t -> int
(** Number of entries. *)

val observation_points : t -> obs_point list
(** Sorted, unique. *)

val prefixes : t -> Prefix.t list
(** Sorted, unique. *)

val origins : t -> Asn.Set.t
(** All origin ASes appearing in paths. *)

val all_paths : t -> Aspath.t list
(** Unique AS-paths across the data set. *)

val by_prefix : t -> entry list Prefix.Map.t

val paths_for_prefix : t -> Prefix.t -> entry list

val union : t -> t -> t
(** Merge two data sets (e.g. dumps from several collectors);
    duplicates collapse. *)

val restrict_points : t -> obs_point list -> t
(** Keep only entries from the given observation points (train/validate
    splitting). *)

val restrict_origins : t -> Asn.Set.t -> t
(** Keep only entries whose path originates in the given set. *)

val unique_paths_per_pair : t -> (Asn.t * Asn.t, Aspath.Set.t) Hashtbl.t
(** For every (origin AS, observation AS) pair, the set of distinct
    AS-paths observed between them over all prefixes — the raw material
    of the paper's Figure 2. *)

val transfer_stub_origins :
  t -> removed:Asn.Set.t -> reprefix:(Asn.t -> Prefix.t) -> t
(** Paper §3.1: single-homed stub ASes are removed from the topology but
    their path information is transferred to a prefix originated by
    their upstream neighbour.  Every entry whose origin is in [removed]
    has its last hop dropped and its prefix replaced by
    [reprefix new_origin]; entries whose path becomes shorter than two
    hops (origin = observation AS) are dropped, as are entries whose
    observation AS itself was removed. *)

val collapse_to_origin : ?reprefix:(Asn.t -> Prefix.t) -> t -> t
(** Paper §4.1: model building originates one prefix per AS, so every
    entry's prefix is replaced by the canonical prefix of its path's
    origin AS ([reprefix], default {!Asn.origin_prefix}) and duplicates
    are merged.  The AS-paths — the information the methodology consumes
    — are untouched. *)

val save : string -> t -> unit
(** Write as a dump file ({!Mrt}). *)

val load : string -> t * cleaning_stats * string list
(** Read a dump file, text ({!Mrt}) or binary ({!Mrt_binary}, told
    apart by {!Mrt_binary.looks_binary}), and clean it.  The list holds
    one diagnostic per malformed line or skipped binary record, in file
    order, prefixed with the path: [path:line: message] for a text
    line (1-based), [path: message] for a binary record. *)
