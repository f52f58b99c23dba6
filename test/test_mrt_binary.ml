(* Tests for the binary MRT (RFC 6396 TABLE_DUMP_V2) reader/writer. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let record ?(time = 1131867000) ?(peer = 7018) ?(peer_octet = 63) origin
    path_list =
  {
    Mrt.time;
    peer_ip = Ipv4.of_octets 12 0 1 peer_octet;
    peer_as = peer;
    prefix = Asn.origin_prefix origin;
    path = Aspath.of_list path_list;
    attrs =
      {
        Attrs.origin = Attrs.Igp;
        next_hop = Ipv4.of_octets 12 0 1 peer_octet;
        local_pref = 110;
        med = 7;
        communities = [ (7018, 5000); (7018, 2500) ];
      };
  }

let roundtrip () =
  let records =
    [
      record 6 [ 7018; 701; 6 ];
      record ~peer:3356 ~peer_octet:77 6 [ 3356; 6 ];
      record 9 [ 7018; 9 ];
    ]
  in
  let data = Mrt_binary.write_bytes records in
  let parsed, diags = Mrt_binary.read_bytes data in
  check_int "no diagnostics" 0 (List.length diags);
  check_int "all records" 3 (List.length parsed);
  List.iter2
    (fun (a : Mrt.record) (b : Mrt.record) ->
      check_bool "time" true (a.Mrt.time = b.Mrt.time);
      check_bool "peer ip" true (Ipv4.equal a.Mrt.peer_ip b.Mrt.peer_ip);
      check_bool "peer as" true (a.Mrt.peer_as = b.Mrt.peer_as);
      check_bool "prefix" true (Prefix.equal a.Mrt.prefix b.Mrt.prefix);
      check_bool "path" true (Aspath.equal a.Mrt.path b.Mrt.path);
      check_bool "attrs" true (Attrs.equal a.Mrt.attrs b.Mrt.attrs))
    records parsed

let groups_by_prefix () =
  (* Two records for the same prefix produce one RIB record with two
     entries — verified indirectly by a stable roundtrip. *)
  let records = [ record 6 [ 7018; 6 ]; record ~peer:3356 ~peer_octet:9 6 [ 3356; 6 ] ] in
  let parsed, _ = Mrt_binary.read_bytes (Mrt_binary.write_bytes records) in
  check_int "both entries" 2 (List.length parsed);
  check_bool "same prefix" true
    (List.for_all
       (fun (r : Mrt.record) -> Prefix.equal r.Mrt.prefix (Asn.origin_prefix 6))
       parsed)

let empty_input () =
  let parsed, diags = Mrt_binary.read_bytes "" in
  check_int "no records" 0 (List.length parsed);
  check_int "no diagnostics" 0 (List.length diags)

let truncation_is_diagnosed () =
  let data = Mrt_binary.write_bytes [ record 6 [ 7018; 6 ] ] in
  (* Chop the stream mid-record. *)
  let cut = String.sub data 0 (String.length data - 5) in
  let parsed, diags = Mrt_binary.read_bytes cut in
  check_bool "diagnostic produced" true (diags <> []);
  check_bool "no crash" true (List.length parsed >= 0);
  (* Garbage input likewise. *)
  let _, diags2 = Mrt_binary.read_bytes "this is not MRT at all.." in
  check_bool "garbage diagnosed" true (diags2 <> [])

(* Truncated-record paths: cuts mid-header, mid-record and mid-attribute
   must each surface the documented diagnostic — never an exception. *)
let truncation_paths () =
  let data = Mrt_binary.write_bytes [ record 6 [ 7018; 701; 6 ] ] in
  let u32_at s i =
    (Char.code s.[i] lsl 24)
    lor (Char.code s.[i + 1] lsl 16)
    lor (Char.code s.[i + 2] lsl 8)
    lor Char.code s.[i + 3]
  in
  let peer_table_len = u32_at data 8 in
  let rib_header = 12 + peer_table_len in
  let rib_start = rib_header + 12 in
  (* Cut inside the second record's 12-byte MRT common header. *)
  let parsed, diags = Mrt_binary.read_bytes (String.sub data 0 (rib_header + 6)) in
  check_int "header cut: no RIB records" 0 (List.length parsed);
  check_bool "header cut diagnosed" true (List.mem "trailing garbage" diags);
  (* Cut inside the record body: the header promises more than exists. *)
  let parsed, diags =
    Mrt_binary.read_bytes (String.sub data 0 (String.length data - 5))
  in
  check_int "body cut: no RIB records" 0 (List.length parsed);
  check_bool "body cut diagnosed" true (List.mem "truncated record body" diags);
  (* Corrupt an attribute length so it overruns the entry's attribute
     region: the entry is dropped with a diagnostic, parsing continues. *)
  let plen = Char.code data.[rib_start + 4] in
  let nbytes = (plen + 7) / 8 in
  let attrs_off = rib_start + 4 + 1 + nbytes + 2 + 2 + 4 + 2 in
  let corrupted = Bytes.of_string data in
  Bytes.set corrupted (attrs_off + 2) '\xF0';
  let parsed, diags = Mrt_binary.read_bytes (Bytes.to_string corrupted) in
  check_int "attr overrun: entry dropped" 0 (List.length parsed);
  check_bool "attr overrun diagnosed" true
    (List.mem "truncated attributes" diags);
  (* Cut inside the attributes with the MRT length patched to match: the
     entry's declared attribute length now overruns the record body. *)
  let cut = attrs_off + 3 in
  let body_len = cut - rib_start in
  let patched = Bytes.of_string (String.sub data 0 cut) in
  List.iteri
    (fun i shift ->
      Bytes.set patched (rib_header + 8 + i)
        (Char.chr ((body_len lsr shift) land 0xFF)))
    [ 24; 16; 8; 0 ];
  let parsed, diags = Mrt_binary.read_bytes (Bytes.to_string patched) in
  check_int "attribute cut: no RIB records" 0 (List.length parsed);
  check_bool "attribute cut diagnosed" true
    (List.mem "truncated RIB record" diags)

let unknown_types_skipped () =
  (* A record of MRT type 16 (BGP4MP) must be skipped gracefully. *)
  let b = Buffer.create 32 in
  let w8 v = Buffer.add_char b (Char.chr (v land 0xFF)) in
  let w16 v = w8 (v lsr 8); w8 v in
  let w32 v = w16 (v lsr 16); w16 v in
  w32 0; w16 16; w16 4; w32 4; w32 0xdeadbeef;
  let good = Mrt_binary.write_bytes [ record 6 [ 7018; 6 ] ] in
  let parsed, diags =
    Mrt_binary.read_bytes (Buffer.contents b ^ good)
  in
  check_int "good record survives" 1 (List.length parsed);
  check_bool "skip diagnosed" true
    (List.exists (fun d -> d = "skipping MRT type 16") diags)

let file_roundtrip_and_detection () =
  let records = [ record 6 [ 7018; 701; 6 ] ] in
  let tmp = Filename.temp_file "mrtbin" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Mrt_binary.write_file tmp records;
      let data, _, diags = Rib.load tmp in
      check_int "clean" 0 (List.length diags);
      check_int "one entry" 1 (Rib.size data);
      let raw = In_channel.with_open_bin tmp In_channel.input_all in
      check_bool "detected binary" true (Mrt_binary.looks_binary raw);
      check_bool "text not detected as binary" false
        (Mrt_binary.looks_binary
           "TABLE_DUMP2|0|B|1.2.3.4|7018|3.0.0.0/8|7018|IGP|1.2.3.4|0|0||NAG||"))

let through_rib_pipeline () =
  (* Binary dumps feed the same cleaning pipeline as text dumps. *)
  let records =
    [ record 6 [ 7018; 701; 6 ]; record 6 [ 7018; 7018; 701; 6 ] (* prepending *) ]
  in
  let parsed, _ = Mrt_binary.read_bytes (Mrt_binary.write_bytes records) in
  let data, stats = Rib.of_records parsed in
  check_int "prepending collapsed and deduped" 1 (Rib.size data);
  check_int "dedup counted" 1 stats.Rib.deduplicated

let gen_record =
  QCheck.Gen.(
    let* origin = int_range 1 5000 in
    let* peer = int_range 1 60000 in
    let* hops = list_size (int_range 1 6) (int_range 1 65000) in
    let* med = int_range 0 1000 in
    let* lpref = int_range 0 1000 in
    return
      {
        Mrt.time = 1000;
        peer_ip = Ipv4.of_int (peer * 7 mod 0xFFFFFF);
        peer_as = peer;
        prefix = Asn.origin_prefix origin;
        path = Aspath.of_list (hops @ [ origin ]);
        attrs =
          {
            Attrs.origin = Attrs.Igp;
            next_hop = Ipv4.of_int peer;
            local_pref = lpref;
            med;
            communities = [];
          };
      })

let prop_roundtrip =
  QCheck.Test.make ~name:"binary mrt roundtrip" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 20) gen_record))
    (fun records ->
      let parsed, diags = Mrt_binary.read_bytes (Mrt_binary.write_bytes records) in
      diags = []
      && List.length parsed = List.length records
      && List.for_all2
           (fun (a : Mrt.record) (b : Mrt.record) ->
             Prefix.equal a.Mrt.prefix b.Mrt.prefix
             && Aspath.equal a.Mrt.path b.Mrt.path
             && a.Mrt.peer_as = b.Mrt.peer_as)
           (List.sort compare records) (List.sort compare parsed))

(* A TABLE_DUMP_V2 stream by hand: one IPv4 peer (AS 7018), then one
   RIB record for 10.0.6.0/24 with an entry per attribute block. *)
let hand_built entries =
  let b = Buffer.create 128 in
  let w8 v = Buffer.add_char b (Char.chr (v land 0xFF)) in
  let w16 v = w8 (v lsr 8); w8 v in
  let w32 v = w16 (v lsr 16); w16 v in
  let record subtype body =
    w32 1131867000; w16 13; w16 subtype; w32 (String.length body);
    Buffer.add_string b body
  in
  let body f =
    let saved = Buffer.contents b in
    Buffer.clear b;
    f ();
    let out = Buffer.contents b in
    Buffer.clear b;
    Buffer.add_string b saved;
    out
  in
  let peers =
    body (fun () ->
        w32 0; w16 0; w16 1; w8 0x02; w32 0; w32 (Ipv4.to_int (Ipv4.of_octets 12 0 1 63)); w32 7018)
  in
  let rib =
    body (fun () ->
        w32 0; w8 24; w8 10; w8 0; w8 6; w16 (List.length entries);
        List.iter
          (fun attrs -> w16 0; w32 0; w16 (String.length attrs); Buffer.add_string b attrs)
          entries)
  in
  record 1 peers;
  record 2 rib;
  Buffer.contents b

(* [attr typ value] is one well-known attribute. *)
let attr typ value = String.concat "" [ "\x40"; String.make 1 (Char.chr typ);
  String.make 1 (Char.chr (String.length value)); value ]

let be32 v = String.init 4 (fun i -> Char.chr ((v lsr (24 - (8 * i))) land 0xFF))

let as_path hops =
  "\x02" ^ String.make 1 (Char.chr (List.length hops)) ^ String.concat "" (List.map be32 hops)

(* A value shorter than its attribute's fixed size must not be read out
   of the next attribute: before the bound, a zero-length ORIGIN read the
   next flag byte (INCOMPLETE) and a zero-length MED the next header. *)
let attribute_lengths_bounded () =
  let rest = [ attr 2 (as_path [ 7018; 6 ]); attr 3 (be32 0x0C00013F) ] in
  let good = String.concat "" (attr 1 "\x00" :: attr 4 (be32 7) :: rest) in
  let zero_origin = String.concat "" (attr 1 "" :: rest) in
  let zero_med = String.concat "" (attr 1 "\x00" :: attr 4 "" :: attr 5 (be32 100) :: rest) in
  let short_path = String.concat "" [ attr 1 "\x00"; attr 2 "\x02\x02\x00\x00\x1b\x6a"; attr 3 (be32 1) ] in
  let odd_communities = String.concat "" (attr 1 "\x00" :: attr 8 "\x00\x01\x00\x02\x00" :: rest) in
  let long_next_hop = String.concat "" [ attr 1 "\x00"; attr 2 (as_path [ 7018 ]); attr 3 "\x01\x02\x03\x04\x05" ] in
  let parsed, diags =
    Mrt_binary.read_bytes
      (hand_built [ good; zero_origin; zero_med; short_path; odd_communities; long_next_hop ])
  in
  check_int "only the well-formed entry survives" 1 (List.length parsed);
  (match parsed with
  | [ r ] ->
      check_bool "its MED" true (r.Mrt.attrs.Attrs.med = 7);
      check_bool "its path" true (Aspath.to_list r.Mrt.path = [ 7018; 6 ])
  | _ -> ());
  Alcotest.(check (list string)) "one diagnostic per dropped entry"
    [
      "ORIGIN length 0 (want 1): entry dropped";
      "MULTI_EXIT_DISC length 0 (want 4): entry dropped";
      "AS_PATH segments overrun the attribute length: entry dropped";
      "COMMUNITIES length 5 (want a multiple of 4): entry dropped";
      "NEXT_HOP length 5 (want 4): entry dropped";
    ]
    diags

let arb_damaged =
  QCheck.make
    QCheck.Gen.(
      triple (list_size (int_range 1 12) gen_record) nat (int_range 0 255))

(* Damaged input is data, not an error: whatever the cut or the flipped
   byte, the reader returns records and diagnostics, and what it
   allocates is bounded by the input's length, not by a length field the
   damage may have inflated. *)
let prop_damaged =
  QCheck.Test.make ~name:"damaged binary: records and diagnostics, bounded"
    ~count:300 arb_damaged (fun (records, k, byte) ->
      let data = Mrt_binary.write_bytes records in
      let n = String.length data in
      let cut = String.sub data 0 (k mod n) in
      let flipped = String.mapi (fun i c -> if i = k mod n then Char.chr byte else c) data in
      List.for_all
        (fun input ->
          match
            Obs.Metrics.allocated_words (fun () -> Mrt_binary.read_bytes input)
          with
          | exception e ->
              QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
          | _, words ->
              words <= 16 * (String.length input + 64)
              || QCheck.Test.fail_reportf "%d words for %d bytes" words
                   (String.length input))
        [ cut; flipped ])

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick roundtrip;
    Alcotest.test_case "groups by prefix" `Quick groups_by_prefix;
    Alcotest.test_case "empty input" `Quick empty_input;
    Alcotest.test_case "truncation diagnosed" `Quick truncation_is_diagnosed;
    Alcotest.test_case "truncation paths" `Quick truncation_paths;
    Alcotest.test_case "unknown types skipped" `Quick unknown_types_skipped;
    Alcotest.test_case "file roundtrip and detection" `Quick
      file_roundtrip_and_detection;
    Alcotest.test_case "through rib pipeline" `Quick through_rib_pipeline;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "attribute lengths bounded" `Quick attribute_lengths_bounded;
    QCheck_alcotest.to_alcotest prop_damaged;
  ]
