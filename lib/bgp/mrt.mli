(** Table dumps in the one-line `bgpdump -m` style.

    Real collectors (Routeviews, RIPE RIS) store MRT [TABLE_DUMP2]
    records; `bgpdump -m` renders each RIB entry as one pipe-separated
    line.  This module reads and writes that line format so that the
    pipeline consumes the same kind of artifact the paper's did:

    {v
    TABLE_DUMP2|<time>|B|<peer_ip>|<peer_as>|<prefix>|<as_path>|<origin>|
    <next_hop>|<local_pref>|<med>|<community>|<atomic_agg>|<aggregator>|
    v}

    (all on one line; [<atomic_agg>] is [AG] or [NAG]; empty trailing
    fields are allowed).  The AS-path as dumped includes the peer AS as
    its first element, as collectors see it over their eBGP session. *)

type record = {
  time : int;  (** Unix timestamp of the table dump. *)
  peer_ip : Ipv4.t;  (** Address of the BGP peer feeding the collector. *)
  peer_as : Asn.t;  (** AS of that peer — the observation AS. *)
  prefix : Prefix.t;
  path : Aspath.t;  (** Includes [peer_as] as first hop. *)
  attrs : Attrs.t;
}

type update =
  | Announce of record
      (** a [BGP4MP|...|A|...] line — same fields as a table-dump
          record. *)
  | Withdraw of { time : int; peer_ip : Ipv4.t; peer_as : Asn.t; prefix : Prefix.t }
      (** a [BGP4MP|...|W|...] line. *)

type 'a line =
  | Skip  (** a blank line or a ['#'] comment — not data, not an error. *)
  | Parsed of 'a
  | Malformed of string
      (** the first malformed field, described.  Distinct from {!Skip}
          by construction, so a genuine parse error can never be
          mistaken for a comment and silently dropped. *)

val record_to_line : record -> string

val record_of_line : string -> record line
(** Parse one line; {!parse_lines} aggregates whole files, skipping
    [Skip] lines silently. *)

val update_to_line : update -> string

val update_of_line : string -> update line
(** Parse one [BGP4MP] update line (announcement or withdrawal).
    Supporting updates is the paper's stated future work ("incorporate
    the AS-path information from BGP updates", §3.1); together with
    {!Rib.apply_updates} it lets a data set be rolled forward in time. *)

val parse_update_lines : string list -> update list * (int * string) list

val parse_lines : string list -> record list * (int * string) list
(** [parse_lines lines] returns the well-formed records plus
    [(line_number, message)] diagnostics for malformed non-comment
    lines.  Line numbers are 1-based. *)

val read_file : string -> record list * (int * string) list

val write_file : string -> record list -> unit
