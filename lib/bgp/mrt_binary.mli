(** Binary MRT (RFC 6396) TABLE_DUMP_V2 reader and writer.

    Routeviews and RIPE RIS publish RIB snapshots as binary MRT files;
    `bgpdump -m` merely renders them as the text lines {!Mrt} handles.
    This module parses the binary format directly — and writes it, so
    synthetic worlds can be dumped in the exact container real tooling
    expects:

    - MRT common header (timestamp, type, subtype, length);
    - [TABLE_DUMP_V2 / PEER_INDEX_TABLE] (subtype 1): collector id,
      view name, peer table with 2- and 4-byte AS numbers and IPv4
      peers (IPv6 peers are skipped with a diagnostic);
    - [TABLE_DUMP_V2 / RIB_IPV4_UNICAST] (subtype 2): prefix, RIB
      entries referencing the peer table, each carrying BGP path
      attributes;
    - path attributes ORIGIN, AS_PATH (AS_SEQUENCE segments; AS_SET
      segments make the entry invalid, mirroring the text pipeline's
      cleaning), NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF and COMMUNITY;
      unknown attributes are skipped by length.

    All multi-byte integers are big-endian.  The writer always emits
    4-byte (AS4) peer entries and 4-byte AS_PATH hops, as RFC 6396
    specifies for TABLE_DUMP_V2. *)

val read_bytes : string -> Mrt.record list * string list
(** Parse an in-memory MRT stream; returns records plus diagnostics for
    records or attributes that had to be skipped.  Raises nothing:
    truncated trailing data becomes a diagnostic.  Each path attribute
    is read within its own declared length: an ORIGIN that is not 1
    byte, a NEXT_HOP, MULTI_EXIT_DISC or LOCAL_PREF that is not 4, a
    COMMUNITY whose length is not a multiple of 4, or AS_PATH segments
    that do not end exactly at the attribute's end drop the entry with
    a diagnostic naming the attribute. *)

val write_bytes : ?view_name:string -> Mrt.record list -> string
(** Serialize: one PEER_INDEX_TABLE (peers deduplicated from the
    records, in first-appearance order) followed by one
    RIB_IPV4_UNICAST record per (prefix, set of entries).  Records for
    the same prefix are grouped. *)

val write_file : ?view_name:string -> string -> Mrt.record list -> unit

val looks_binary : string -> bool
(** Heuristic {!Rib.load} uses to auto-detect the input flavour: true
    if the (beginning of the) data cannot be a text dump. *)
