(** BGP route attributes.

    Only the attributes that participate in the paper's decision process
    or appear in table dumps are modelled: ORIGIN, NEXT_HOP, LOCAL_PREF,
    MULTI_EXIT_DISC and COMMUNITY. *)

type origin = Igp | Egp | Incomplete

val origin_to_string : origin -> string
(** ["IGP"], ["EGP"], ["INCOMPLETE"] — the dump spellings. *)

val origin_of_string : string -> origin option

val origin_of_substring : string -> int -> int -> origin option
(** [origin_of_substring s a b] is [origin_of_string] on [s.[a..b-1]],
    without copying it. *)

type community = int * int
(** [(asn, value)], rendered ["asn:value"]. *)

type t = {
  origin : origin;
  next_hop : Ipv4.t;
  local_pref : int;
  med : int;
  communities : community list;
}

val default : next_hop:Ipv4.t -> t
(** ORIGIN [Igp], LOCAL_PREF 100, MED 0, no communities. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val community_to_string : community -> string

val community_of_string : string -> community option

val add_communities : Buffer.t -> community list -> unit
(** Appends the {!community_to_string} texts, space-separated (nothing
    for []), digit by digit. *)

val communities_of_string : string -> community list option
(** Space-separated {!community_of_string} tokens (["asn:value"], both
    decimal up to [max_int]); runs of spaces separate. *)

val communities_of_substring : string -> int -> int -> community list option
(** [communities_of_substring s a b] parses [s.[a..b-1]] as
    {!communities_of_string} does, without copying it. *)
