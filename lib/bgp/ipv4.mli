(** IPv4 addresses.

    Addresses are stored as non-negative 32-bit values inside a native
    [int] (OCaml ints are 63-bit, so the full unsigned range fits).  The
    module provides parsing, printing, masking and the address arithmetic
    the rest of the library needs; nothing here depends on the host
    network stack. *)

type t = private int
(** An IPv4 address in host byte order, [0] .. [2^32 - 1]. *)

val of_int : int -> t
(** [of_int n] is the address with numeric value [n land 0xFFFFFFFF]. *)

val to_int : t -> int
(** Numeric value of the address. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d].  Raises [Invalid_argument] if any
    octet is outside [0..255]. *)

val octets : t -> int * int * int * int
(** The four dotted-quad octets, most significant first. *)

val of_string : string -> t option
(** Parse a dotted-quad address: exactly four dot-separated octets of
    one to three decimal digits each, every octet [<= 255].  [None] on
    malformed input. *)

val of_substring : string -> int -> int -> t option
(** [of_substring s a b] is [of_string (String.sub s a (b - a))] without
    the copy. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** Dotted-quad rendering, e.g. ["192.0.2.1"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!to_string} text, digit by digit. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (dotted quad). *)

val compare : t -> t -> int
(** Total order by numeric value; the BGP tie-break ("lowest neighbour
    IP") uses this order. *)

val equal : t -> t -> bool

val mask_bits : int -> t
(** [mask_bits n] is the netmask with [n] leading one bits,
    [0 <= n <= 32].  Raises [Invalid_argument] otherwise. *)

val apply_mask : int -> t -> t
(** [apply_mask len a] zeroes all but the first [len] bits of [a]. *)

