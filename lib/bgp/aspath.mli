(** AS-paths.

    An AS-path is the sequence of ASes a route announcement crossed, most
    recent hop first (leftmost) and origin AS last (rightmost) — the order
    used in router output and in `bgpdump -m` lines.

    Following §3.1 of the paper, analysis paths are normalized by removing
    AS-path prepending (consecutive duplicates) and paths that still
    contain loops are discarded. *)

type t = private int array
(** Immutable by convention; use the constructors below. *)

val of_list : Asn.t list -> t

val to_list : t -> Asn.t list

val of_array : Asn.t array -> t
(** Copies the array. *)

val to_array : t -> Asn.t array
(** Returns a copy. *)

val empty : t

val is_empty : t -> bool

val length : t -> int
(** Number of AS hops (after the caller's normalization, this is the
    metric the BGP decision process compares). *)

val origin : t -> Asn.t option
(** Rightmost AS — the originator. *)

val head : t -> Asn.t option
(** Leftmost AS — the most recent hop (the observed AS for a path taken
    from an observation point, the announcing neighbour otherwise). *)

val nth : t -> int -> Asn.t
(** [nth p i] is the [i]-th AS from the left.  Raises [Invalid_argument]
    when out of bounds. *)

val prepend : Asn.t -> t -> t
(** [prepend a p] is the path advertised by AS [a] that selected [p]. *)

val drop_head : t -> t
(** Path without its leftmost AS.  Raises [Invalid_argument] on empty. *)

val suffix_from : t -> int -> t
(** [suffix_from p i] is the sub-path from position [i] (inclusive, from
    the left) to the origin. *)

val suffixes : t -> t list
(** All non-empty suffixes, longest (the path itself) first. *)

val contains : Asn.t -> t -> bool

val remove_prepending : t -> t
(** Collapse consecutive duplicate ASNs (paper §3.1, footnote 1).  A
    path with none is returned as is. *)

val has_loop : t -> bool
(** True iff some AS occurs at two non-adjacent positions (run
    {!remove_prepending} first to ignore prepending). *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Shorter paths first, then hop by hop: the order of [Stdlib.compare]
    on the underlying arrays. *)

val hash : t -> int

val of_string : string -> t option
(** Parse a space-separated ASN sequence, e.g. ["701 1239 24249"]: runs
    of spaces separate, leading and trailing spaces are ignored, and
    every token must be an {!Asn.of_string} ASN.  AS_SET segments
    (["{1,2}"]) are rejected ([None]) — the paper's data cleaning drops
    them. An empty string parses to {!empty}. *)

val of_substring : string -> int -> int -> t option
(** [of_substring s a b] parses [s.[a..b-1]] as {!of_string} does,
    without copying it. *)

val to_string : t -> string
(** Space-separated, e.g. ["701 1239 24249"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!to_string} text, digit by digit. *)

val pp : Format.formatter -> t -> unit
(** Dash-separated rendering as in the paper's prose (["1-7-6"]). *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
