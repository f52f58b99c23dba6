(** Minimal JSON values for the query-service wire protocol.

    The repo deliberately has no JSON dependency; the observability
    layer prints JSON by hand.  The wire protocol additionally needs to
    {e read} JSON, so this module pairs a printer with a small
    recursive-descent parser.  Integers stay exact ([Int]); non-integer
    numbers parse as [Float].  [\u] escapes above ASCII are replaced
    with [?] rather than decoded (the protocol never produces them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace) rendering with standard escaping. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace, a number beyond the
    float range and containers nested more than 64 deep are errors. *)

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option

val to_int : t -> int option

val to_str : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option
