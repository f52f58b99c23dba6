(** Table dumps in the one-line `bgpdump -m` style.

    Real collectors (Routeviews, RIPE RIS) store MRT [TABLE_DUMP2]
    records; `bgpdump -m` renders each RIB entry as one pipe-separated
    line.  This module reads and writes that line format so that the
    pipeline consumes the same kind of artifact the paper's did:

    {v
    TABLE_DUMP2|<time>|B|<peer_ip>|<peer_as>|<prefix>|<as_path>|<origin>|
    <next_hop>|<local_pref>|<med>|<community>|<atomic_agg>|<aggregator>|
    v}

    (all on one line).  The AS-path as dumped includes the peer AS as
    its first element, as collectors see it over their eBGP session.

    {b What the reader accepts.}  A line is scanned in place, field by
    field, with no intermediate list or substring:
    - whitespace around the line (as [String.trim] removes it) is
      ignored; a line that is then empty or starts with ['#'] is
      {!Skip};
    - the kind is [TABLE_DUMP2] or [TABLE_DUMP], the subtype [B];
    - the first twelve fields (up to [<community>]) must be present;
      anything after them, [<atomic_agg>] and [<aggregator>] included,
      may be missing or empty and is not read;
    - [<time>], [<local_pref>] and [<med>] are decimal digits only, at
      most [max_int]; [<peer_as>] and every AS-path hop are such
      integers [>= 1];
    - addresses are four dot-separated octets of one to three digits,
      each [<= 255]; a prefix is [addr/len] with [len <= 32] (a longer
      run of digits is malformed, not an overflow);
    - [<as_path>] and [<community>] are space-separated tokens, runs of
      spaces allowed, either may be empty; a community is [asn:value];
      AS_SET segments are malformed;
    - the origin is [IGP], [EGP] or [INCOMPLETE], case-sensitive.
    Anything else is {!Malformed}, never an exception: any other
    whitespace inside a field is malformed, and a line with fewer than
    twelve fields is ["too few fields"] whatever else is wrong with it.

    {b What the writer emits.}  Exactly the [to_string] rendering of
    every field ({!Ipv4.to_string}, {!Prefix.to_string}, ...), written
    digit by digit into one buffer, with [<atomic_agg>] [NAG] and an
    empty aggregator; so {!record_of_line} of {!record_to_line} is the
    identity and a printed line parses and prints back to itself. *)

type record = {
  time : int;  (** Unix timestamp of the table dump. *)
  peer_ip : Ipv4.t;  (** Address of the BGP peer feeding the collector. *)
  peer_as : Asn.t;  (** AS of that peer — the observation AS. *)
  prefix : Prefix.t;
  path : Aspath.t;  (** Includes [peer_as] as first hop. *)
  attrs : Attrs.t;
}

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

val parse_lines : string list -> record list * (int * string) list
(** [parse_lines lines] returns the well-formed records plus
    [(line_number, message)] diagnostics for malformed non-comment
    lines.  Line numbers are 1-based. *)

val write_file : string -> record list -> unit
