(** CIDR prefixes.

    A prefix is a network address plus a mask length; the address is kept
    in canonical form (host bits zeroed), so structural equality equals
    semantic equality.  Prefixes are the unit of routing throughout the
    library: every simulation run, every policy rule and every RIB entry
    is keyed by a prefix. *)

type t = private { network : Ipv4.t; length : int }
(** A canonical CIDR prefix, e.g. [198.51.100.0/24]. *)

val make : Ipv4.t -> int -> t
(** [make addr len] canonicalizes [addr] to [len] bits.  Raises
    [Invalid_argument] if [len] is outside [0..32]. *)

val network : t -> Ipv4.t

val length : t -> int

val of_string : string -> t option
(** Parse ["a.b.c.d/len"] ({!Ipv4.of_string} address, decimal length
    [<= 32]). [None] on malformed input, however long the length's run
    of digits.  The address part is canonicalized, so ["10.1.2.3/16"]
    parses to [10.1.0.0/16]. *)

val of_substring : string -> int -> int -> t option
(** [of_substring s a b] parses [s.[a..b-1]] as {!of_string} does,
    without copying it. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument]. *)

val to_string : t -> string
(** ["network/length"], e.g. ["192.0.2.0/24"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!to_string} text, digit by digit. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Order by network address, then by mask length (shorter first). *)

val equal : t -> t -> bool

val hash : t -> int

val mem : Ipv4.t -> t -> bool
(** [mem addr p] is true iff [addr] lies inside [p]. *)

val default : t
(** [0.0.0.0/0]. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Table : Hashtbl.S with type key = t
