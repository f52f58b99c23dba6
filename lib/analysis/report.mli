(** Lint findings: severity, location, message, fix hint.

    Every rule in {!Rules} and every {!Ownership} violation surfaces as
    a [finding].  [Error] means the model is malformed — simulation
    results on it are not trustworthy and [asmodel lint] exits
    non-zero; [Warn] flags dead weight or latent hazards (shadowed
    filters, divergence risks) that do not invalidate results. *)

open Bgp

type severity = Error | Warn

type location =
  | Network  (** a whole-net property (counters, AS partition) *)
  | Node of int
  | Session of int * int  (** (node, session index) *)
  | Prefix_loc of Prefix.t
  | Node_prefix of int * Prefix.t
  | Session_prefix of int * int * Prefix.t

type finding = {
  severity : severity;
  rule : string;  (** stable kebab-case rule id, e.g. ["session-self"] *)
  location : location;
  message : string;  (** what is wrong, with concrete ids *)
  hint : string;  (** how to fix it *)
}

type t
(** A report: findings ordered Errors first (stable within severity). *)

val of_findings : finding list -> t

val findings : t -> finding list

val error_count : t -> int

val warn_count : t -> int

val is_clean : t -> bool
(** No [Error] findings ([Warn]s may remain). *)

val has_rule : t -> string -> bool
(** Some finding carries this rule id. *)

val pp_finding : Format.formatter -> finding -> unit

val pp : Format.formatter -> t -> unit
(** Findings one per line (with hints), then a one-line summary. *)
