(** Wire protocol of the query service: request/response types, their
    JSON encoding, and length-prefixed framing.

    Every frame is a 4-byte big-endian payload length followed by that
    many bytes of JSON.  Requests are objects selected by an ["op"]
    field; responses carry ["ok"], ["elapsed_us"], ["deadline_missed"]
    and either ["result"] or ["error"]. *)

open Bgp

type request =
  | Path of { prefix : Prefix.t; asn : Asn.t }
      (** the AS's selected full paths toward the prefix *)
  | Catchment of { egress : Asn.t; prefix : Prefix.t option }
      (** ASes whose selected route transits [egress]; one prefix, or
          every model prefix when [None] *)
  | Whatif of { a : Asn.t; b : Asn.t }
      (** deny the AS link, re-converge warm the prefixes whose best
          routes cross it, diff, revert *)
  | Ping
  | Reload
      (** rebuild the snapshot warm off to the side and atomically
          publish it; served by the server itself (it owns the store) *)
  | Shutdown  (** answer, then stop accepting connections *)

type whatif_change = { wc_prefix : Prefix.t; wc_changed : int; wc_lost : int }

type payload =
  | Paths of { prefix : Prefix.t; asn : Asn.t; paths : int array list }
  | Catchment_members of {
      egress : Asn.t;
      members : (Prefix.t * Asn.t list) list;
    }
  | Whatif_summary of {
      a : Asn.t;
      b : Asn.t;
      half_sessions : int;
      prefixes_affected : int;
      ases_affected : int;
      resume_hits : int;
          (** warm resumes used for this query's deltas: one per
              re-simulated prefix — only those whose best routes cross
              the link — when [RD_WARM] is on *)
      changes : whatif_change list;  (** capped at 20 entries *)
    }
  | Pong of {
      prefixes : int;
          (** prefixes the snapshot serves: the model's, plus any a
              churn replay announced, minus any it dropped — the count
              a [Reload] of it reports *)
      nodes : int;  (** quasi-routers in the model *)
    }
  | Reloaded of { prefixes : int; resume_hits : int; build_s : float }
  | Closing

type response = {
  result : (payload, string) result;
  elapsed_us : int;
  deadline_missed : bool;
}

val request_to_string : request -> string

val request_of_string : string -> (request, string) result

val response_to_string : response -> string

(** {2 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one length-prefixed frame; loops until fully written. *)

val read_frame :
  ?deadline_ms:int -> Unix.file_descr -> (string option, string) result
(** Read one frame.  [Ok None] on a clean end-of-stream before a
    header; [Error] on a truncated or oversized frame.  The payload
    buffer starts at 64 KiB at most and doubles only as bytes arrive,
    so memory follows the bytes received, not the length the header
    claims.  With
    [deadline_ms > 0] (default [0]: never time out), a socket receive
    timeout arms once the first frame byte has arrived — waiting for a
    frame to start is keep-alive idleness and never times out, but a
    peer stalling {e mid-frame} yields [Error] {!read_timeout_msg}
    after [deadline_ms]. *)

val read_timeout_msg : string
(** The exact [Error] message {!read_frame} returns on a mid-frame
    stall, for callers that count timeouts separately. *)
