(* RFC 6396 TABLE_DUMP_V2, IPv4 unicast only.  Big-endian throughout. *)

let mrt_type_table_dump_v2 = 13

let subtype_peer_index_table = 1

let subtype_rib_ipv4_unicast = 2

(* ---------------- reading ---------------- *)

(* A cursor over an immutable string; reads raise [Truncated] which the
   record loop converts into a diagnostic. *)
exception Truncated

type cursor = { data : string; mutable pos : int; limit : int }

let cursor data pos limit = { data; pos; limit }

let remaining c = c.limit - c.pos

let u8 c =
  if c.pos >= c.limit then raise Truncated;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let hi = u8 c in
  let lo = u8 c in
  (hi lsl 8) lor lo

let u32 c =
  let hi = u16 c in
  let lo = u16 c in
  (hi lsl 16) lor lo

let bytes c n =
  if remaining c < n then raise Truncated;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let skip c n =
  if remaining c < n then raise Truncated;
  c.pos <- c.pos + n

type peer = { peer_ip : Ipv4.t option; peer_as : Asn.t }

let parse_peer_index_table c =
  (* collector BGP id *)
  skip c 4;
  let view_len = u16 c in
  skip c view_len;
  let count = u16 c in
  let peers = ref [] in
  for _ = 1 to count do
    let peer_type = u8 c in
    let ipv6 = peer_type land 0x01 <> 0 in
    let as4 = peer_type land 0x02 <> 0 in
    skip c 4 (* peer BGP id *);
    let ip =
      if ipv6 then begin
        skip c 16;
        None
      end
      else Some (Ipv4.of_int (u32 c))
    in
    let asn = if as4 then u32 c else u16 c in
    peers := { peer_ip = ip; peer_as = asn } :: !peers
  done;
  Array.of_list (List.rev !peers)

(* BGP path attributes of one RIB entry. *)
type attrs_acc = {
  mutable origin : Attrs.origin option;
  mutable next_hop : Ipv4.t option;
  mutable med : int;
  mutable local_pref : int;
  mutable communities : Attrs.community list;
  mutable as_path : int array option;
  mutable has_as_set : bool;
}

(* A malformed attribute: the entry carrying it is dropped with this
   diagnostic. *)
exception Bad_attribute of string

(* [c] is bounded at the attribute's end, so a segment claiming more
   hops than remain raises [Truncated] instead of reading the next
   attribute. *)
let parse_as_path c =
  let segments = ref [] in
  let has_set = ref false in
  while c.pos < c.limit do
    let seg_type = u8 c in
    let count = u8 c in
    let hops = Array.init count (fun _ -> u32 c) in
    if seg_type = 2 then segments := hops :: !segments
    else has_set := true
  done;
  (Array.concat (List.rev !segments), !has_set)

(* A fixed-size attribute's value, read whole or not at all. *)
let expect_length name alen want =
  if alen <> want then
    raise
      (Bad_attribute
         (Printf.sprintf "%s length %d (want %d): entry dropped" name alen want))

(* Each attribute is parsed through a cursor bounded at its declared
   end, so a short value can never read the next attribute's bytes. *)
let parse_attributes c =
  let acc =
    {
      origin = None;
      next_hop = None;
      med = 0;
      local_pref = 100;
      communities = [];
      as_path = None;
      has_as_set = false;
    }
  in
  while c.pos < c.limit do
    let flags = u8 c in
    let typ = u8 c in
    let alen = if flags land 0x10 <> 0 then u16 c else u8 c in
    if remaining c < alen then raise Truncated;
    let v = cursor c.data c.pos (c.pos + alen) in
    c.pos <- c.pos + alen;
    match typ with
    | 1 ->
        expect_length "ORIGIN" alen 1;
        acc.origin <-
          (match u8 v with
          | 0 -> Some Attrs.Igp
          | 1 -> Some Attrs.Egp
          | _ -> Some Attrs.Incomplete)
    | 2 -> (
        (* Segments must end exactly at the attribute's end. *)
        match parse_as_path v with
        | path, has_set ->
            acc.as_path <- Some path;
            acc.has_as_set <- has_set
        | exception Truncated ->
            raise
              (Bad_attribute
                 "AS_PATH segments overrun the attribute length: entry dropped"))
    | 3 ->
        expect_length "NEXT_HOP" alen 4;
        acc.next_hop <- Some (Ipv4.of_int (u32 v))
    | 4 ->
        expect_length "MULTI_EXIT_DISC" alen 4;
        acc.med <- u32 v
    | 5 ->
        expect_length "LOCAL_PREF" alen 4;
        acc.local_pref <- u32 v
    | 8 ->
        if alen mod 4 <> 0 then
          raise
            (Bad_attribute
               (Printf.sprintf
                  "COMMUNITIES length %d (want a multiple of 4): entry dropped"
                  alen));
        let communities = ref [] in
        for _ = 1 to alen / 4 do
          let x = u32 v in
          communities := ((x lsr 16) land 0xFFFF, x land 0xFFFF) :: !communities
        done;
        acc.communities <- List.rev !communities
    | _ -> ()
  done;
  acc

let parse_rib_ipv4 ~time ~peers c diagnostics =
  let _sequence = u32 c in
  let plen = u8 c in
  if plen > 32 then raise Truncated;
  let nbytes = (plen + 7) / 8 in
  let praw = bytes c nbytes in
  let network = ref 0 in
  String.iteri (fun i ch -> network := !network lor (Char.code ch lsl (24 - (8 * i)))) praw;
  let prefix = Prefix.make (Ipv4.of_int !network) plen in
  let count = u16 c in
  let records = ref [] in
  for _ = 1 to count do
    let peer_index = u16 c in
    let originated = u32 c in
    ignore originated;
    let alen = u16 c in
    if remaining c < alen then raise Truncated;
    let sub = cursor c.data c.pos (c.pos + alen) in
    c.pos <- c.pos + alen;
    if peer_index >= Array.length peers then
      diagnostics := "peer index out of range" :: !diagnostics
    else
      let peer = peers.(peer_index) in
      match peer.peer_ip with
      | None -> diagnostics := "skipping IPv6 peer entry" :: !diagnostics
      | Some peer_ip -> (
          match parse_attributes sub with
          | exception Truncated ->
              diagnostics := "truncated attributes" :: !diagnostics
          | exception Bad_attribute msg -> diagnostics := msg :: !diagnostics
          | acc ->
              if acc.has_as_set then
                diagnostics := "AS_SET segment: entry dropped" :: !diagnostics
              else
                let path =
                  Aspath.of_array (Option.value ~default:[||] acc.as_path)
                in
                records :=
                  {
                    Mrt.time;
                    peer_ip;
                    peer_as = peer.peer_as;
                    prefix;
                    path;
                    attrs =
                      {
                        Attrs.origin = Option.value ~default:Attrs.Igp acc.origin;
                        next_hop = Option.value ~default:peer_ip acc.next_hop;
                        local_pref = acc.local_pref;
                        med = acc.med;
                        communities = acc.communities;
                      };
                  }
                  :: !records)
  done;
  List.rev !records

let read_bytes data =
  let diagnostics = ref [] in
  let records = ref [] in
  let peers = ref [||] in
  let c = cursor data 0 (String.length data) in
  let rec loop () =
    if remaining c >= 12 then begin
      let time = u32 c in
      let typ = u16 c in
      let subtype = u16 c in
      let len = u32 c in
      if remaining c < len then begin
        diagnostics := "truncated record body" :: !diagnostics;
        c.pos <- c.limit
      end
      else begin
        let body = cursor c.data c.pos (c.pos + len) in
        c.pos <- c.pos + len;
        (if typ <> mrt_type_table_dump_v2 then
           diagnostics :=
             Printf.sprintf "skipping MRT type %d" typ :: !diagnostics
         else
           match subtype with
           | s when s = subtype_peer_index_table -> (
               match parse_peer_index_table body with
               | table -> peers := table
               | exception Truncated ->
                   diagnostics := "truncated peer index table" :: !diagnostics)
           | s when s = subtype_rib_ipv4_unicast -> (
               match parse_rib_ipv4 ~time ~peers:!peers body diagnostics with
               | entries -> records := List.rev_append entries !records
               | exception Truncated ->
                   diagnostics := "truncated RIB record" :: !diagnostics)
           | s ->
               diagnostics :=
                 Printf.sprintf "skipping TABLE_DUMP_V2 subtype %d" s
                 :: !diagnostics);
        loop ()
      end
    end
    else if remaining c > 0 then
      diagnostics := "trailing garbage" :: !diagnostics
  in
  loop ();
  (List.rev !records, List.rev !diagnostics)

(* ---------------- writing ---------------- *)

let w8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let w16 b v =
  w8 b (v lsr 8);
  w8 b v

let w32 b v =
  w16 b (v lsr 16);
  w16 b v

let header b ~time ~subtype ~len =
  w32 b time;
  w16 b mrt_type_table_dump_v2;
  w16 b subtype;
  w32 b len

let peer_table_body ~view_name peers =
  let b = Buffer.create 256 in
  w32 b 0 (* collector id *);
  w16 b (String.length view_name);
  Buffer.add_string b view_name;
  w16 b (List.length peers);
  List.iter
    (fun (ip, asn) ->
      w8 b 0x02 (* IPv4 peer, 4-byte AS *);
      w32 b 0 (* peer BGP id *);
      w32 b (Ipv4.to_int ip);
      w32 b asn)
    peers;
  Buffer.contents b

let attributes_body (r : Mrt.record) =
  let b = Buffer.create 64 in
  let attr typ value =
    w8 b 0x40 (* well-known transitive, not extended *);
    w8 b typ;
    w8 b (String.length value);
    Buffer.add_string b value
  in
  let scalar32 v =
    let s = Buffer.create 4 in
    w32 s v;
    Buffer.contents s
  in
  attr 1
    (String.make 1
       (Char.chr
          (match r.Mrt.attrs.Attrs.origin with
          | Attrs.Igp -> 0
          | Attrs.Egp -> 1
          | Attrs.Incomplete -> 2)));
  (* AS_PATH: one AS_SEQUENCE segment with 4-byte hops. *)
  let path = Aspath.to_array r.Mrt.path in
  let seg = Buffer.create 16 in
  w8 seg 2;
  w8 seg (Array.length path);
  Array.iter (fun a -> w32 seg a) path;
  attr 2 (Buffer.contents seg);
  attr 3 (scalar32 (Ipv4.to_int r.Mrt.attrs.Attrs.next_hop));
  attr 4 (scalar32 r.Mrt.attrs.Attrs.med);
  attr 5 (scalar32 r.Mrt.attrs.Attrs.local_pref);
  (match r.Mrt.attrs.Attrs.communities with
  | [] -> ()
  | cs ->
      let body = Buffer.create 16 in
      List.iter (fun (a, v) -> w32 body (((a land 0xFFFF) lsl 16) lor (v land 0xFFFF))) cs;
      attr 8 (Buffer.contents body));
  Buffer.contents b

let rib_body ~sequence ~peer_index_of records =
  match records with
  | [] -> None
  | first :: _ ->
      let prefix = first.Mrt.prefix in
      let b = Buffer.create 128 in
      w32 b sequence;
      let plen = Prefix.length prefix in
      w8 b plen;
      let nbytes = (plen + 7) / 8 in
      let network = Ipv4.to_int (Prefix.network prefix) in
      for i = 0 to nbytes - 1 do
        w8 b ((network lsr (24 - (8 * i))) land 0xFF)
      done;
      w16 b (List.length records);
      List.iter
        (fun (r : Mrt.record) ->
          w16 b (peer_index_of r);
          w32 b r.Mrt.time;
          let attrs = attributes_body r in
          w16 b (String.length attrs);
          Buffer.add_string b attrs)
        records;
      Some (Buffer.contents b)

let write_bytes ?(view_name = "route_diversity") records =
  (* Peer table in first-appearance order. *)
  let peer_ids = Hashtbl.create 64 in
  let peers = ref [] in
  List.iter
    (fun (r : Mrt.record) ->
      let key = (r.Mrt.peer_ip, r.Mrt.peer_as) in
      if not (Hashtbl.mem peer_ids key) then begin
        Hashtbl.add peer_ids key (Hashtbl.length peer_ids);
        peers := key :: !peers
      end)
    records;
  let peers = List.rev !peers in
  let time = match records with r :: _ -> r.Mrt.time | [] -> 0 in
  let out = Buffer.create 4096 in
  let emit ~subtype body =
    header out ~time ~subtype ~len:(String.length body);
    Buffer.add_string out body
  in
  emit ~subtype:subtype_peer_index_table (peer_table_body ~view_name peers);
  (* Group records by prefix, preserving first-appearance order. *)
  let order = ref [] in
  let groups = Prefix.Table.create 256 in
  List.iter
    (fun (r : Mrt.record) ->
      match Prefix.Table.find_opt groups r.Mrt.prefix with
      | Some l -> l := r :: !l
      | None ->
          Prefix.Table.add groups r.Mrt.prefix (ref [ r ]);
          order := r.Mrt.prefix :: !order)
    records;
  List.iteri
    (fun sequence prefix ->
      let group = List.rev !(Prefix.Table.find groups prefix) in
      let peer_index_of (r : Mrt.record) =
        Hashtbl.find peer_ids (r.Mrt.peer_ip, r.Mrt.peer_as)
      in
      match rib_body ~sequence ~peer_index_of group with
      | Some body -> emit ~subtype:subtype_rib_ipv4_unicast body
      | None -> ())
    (List.rev !order);
  Buffer.contents out

let write_file ?view_name path records =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (write_bytes ?view_name records))

let looks_binary data =
  let n = min (String.length data) 4096 in
  let has_pipe = ref false in
  let has_nul = ref false in
  for i = 0 to n - 1 do
    if data.[i] = '|' then has_pipe := true;
    if data.[i] = '\000' then has_nul := true
  done;
  !has_nul || not !has_pipe
