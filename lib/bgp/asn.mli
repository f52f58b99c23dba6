(** Autonomous-system numbers.

    ASNs are plain integers (16-bit in the paper's 2005 data set; we allow
    the 32-bit range).  The module also fixes the synthetic addressing
    scheme used throughout the reproduction:

    - every AS originates exactly one prefix ({!origin_prefix}), mirroring
      the paper's "one prefix per AS" simplification (§4.1);
    - every quasi-router gets an IP whose high-order 16 bits are the AS
      number and whose low-order bits are a per-AS index (§4.5), which is
      what the final BGP tie-break compares. *)

type t = int
(** An AS number, [>= 1]. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int

val equal : t -> t -> bool

val of_string : string -> t option
(** Parse a decimal ASN: digits only, at most [max_int], [>= 1];
    [None] otherwise. *)

val of_substring : string -> int -> int -> t option
(** [of_substring s a b] parses [s.[a..b-1]] as {!of_string} does,
    without copying it. *)

val to_string : t -> string

val origin_prefix : t -> Prefix.t
(** [origin_prefix asn] is the canonical /24 prefix originated by [asn]
    in synthetic data sets — the prefix the model pipeline uses for the
    paper's "one prefix per AS" simplification (§4.1).  Distinct ASNs
    below [2^16] map to distinct prefixes.  Equals [nth_prefix asn 0]. *)

val nth_prefix : t -> int -> Prefix.t
(** [nth_prefix asn i] is the [i]-th /24 prefix originated by [asn],
    [0 <= i <= 15].  Real ASes originate many prefixes; the synthetic
    world mirrors that. *)

val max_prefixes : int
(** Upper bound on the per-AS prefix index ([16]). *)

val of_origin_prefix : Prefix.t -> t option
(** Inverse of {!nth_prefix} (any index) where defined: the AS that
    originates the prefix. *)

val router_ip : t -> int -> Ipv4.t
(** [router_ip asn idx] is the paper's quasi-router address: high 16 bits
    [asn], low 16 bits [idx].  Raises [Invalid_argument] if either is out
    of range. *)

val of_router_ip : Ipv4.t -> t * int
(** Inverse of {!router_ip}: [(asn, idx)]. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
