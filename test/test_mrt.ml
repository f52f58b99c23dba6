(* Tests for the bgpdump-style table-dump line format. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let sample_record =
  {
    Mrt.time = 1131867000;
    peer_ip = Ipv4.of_octets 12 0 1 63;
    peer_as = 7018;
    prefix = Prefix.of_string_exn "3.0.0.0/8";
    path = Aspath.of_list [ 7018; 701; 703 ];
    attrs =
      {
        Attrs.origin = Attrs.Igp;
        next_hop = Ipv4.of_octets 12 0 1 63;
        local_pref = 100;
        med = 0;
        communities = [ (7018, 5000) ];
      };
  }

let roundtrip () =
  let line = Mrt.record_to_line sample_record in
  match Mrt.record_of_line line with
  | Mrt.Malformed e -> Alcotest.failf "parse failed: %s" e
  | Mrt.Skip -> Alcotest.fail "a record line is not a comment"
  | Mrt.Parsed r ->
      check_bool "time" true (r.Mrt.time = sample_record.Mrt.time);
      check_bool "peer ip" true (Ipv4.equal r.Mrt.peer_ip sample_record.Mrt.peer_ip);
      check_bool "peer as" true (r.Mrt.peer_as = sample_record.Mrt.peer_as);
      check_bool "prefix" true (Prefix.equal r.Mrt.prefix sample_record.Mrt.prefix);
      check_bool "path" true (Aspath.equal r.Mrt.path sample_record.Mrt.path);
      check_bool "attrs" true (Attrs.equal r.Mrt.attrs sample_record.Mrt.attrs)

let real_world_line () =
  (* A line in the shape bgpdump -m emits. *)
  let line =
    "TABLE_DUMP2|1131867000|B|12.0.1.63|7018|3.0.0.0/8|7018 701 703|IGP|12.0.1.63|100|0|7018:5000|NAG||"
  in
  match Mrt.record_of_line line with
  | Mrt.Malformed e -> Alcotest.failf "parse failed: %s" e
  | Mrt.Skip -> Alcotest.fail "a record line is not a comment"
  | Mrt.Parsed r ->
      check_bool "peer as" true (r.Mrt.peer_as = 7018);
      check_bool "path" true (Aspath.to_list r.Mrt.path = [ 7018; 701; 703 ]);
      check_bool "community" true (r.Mrt.attrs.Attrs.communities = [ (7018, 5000) ])

let comments_skipped () =
  let records, errors =
    Mrt.parse_lines
      [
        "# a comment";
        "";
        Mrt.record_to_line sample_record;
        "garbage line";
        Mrt.record_to_line sample_record;
      ]
  in
  Alcotest.(check int) "records" 2 (List.length records);
  Alcotest.(check int) "errors" 1 (List.length errors);
  (match errors with
  | [ (4, _) ] -> ()
  | _ -> Alcotest.fail "error should point at line 4")

let malformed_fields () =
  let check_err label line =
    match Mrt.record_of_line line with
    | Mrt.Malformed _ -> ()
    | Mrt.Skip | Mrt.Parsed _ -> Alcotest.failf "%s should not parse" label
  in
  check_err "bad kind" "BOGUS|1|B|1.2.3.4|7018|3.0.0.0/8|7018|IGP|1.2.3.4|0|0||NAG||";
  check_err "bad subtype" "TABLE_DUMP2|1|A|1.2.3.4|7018|3.0.0.0/8|7018|IGP|1.2.3.4|0|0||NAG||";
  check_err "bad prefix" "TABLE_DUMP2|1|B|1.2.3.4|7018|3.0.0.0|7018|IGP|1.2.3.4|0|0||NAG||";
  check_err "bad path" "TABLE_DUMP2|1|B|1.2.3.4|7018|3.0.0.0/8|70x18|IGP|1.2.3.4|0|0||NAG||";
  check_err "bad origin" "TABLE_DUMP2|1|B|1.2.3.4|7018|3.0.0.0/8|7018|OOPS|1.2.3.4|0|0||NAG||";
  check_err "too few" "TABLE_DUMP2|1|B|1.2.3.4"

let file_roundtrip () =
  let tmp = Filename.temp_file "mrt_test" ".dump" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Mrt.write_file tmp [ sample_record; sample_record ];
      let data, stats, diagnostics = Rib.load tmp in
      Alcotest.(check int) "no diagnostics" 0 (List.length diagnostics);
      Alcotest.(check int) "two records" 2 stats.Rib.raw;
      Alcotest.(check int) "one entry" 1 (Rib.size data))

let parses label line =
  match Mrt.record_of_line line with
  | Mrt.Parsed r -> r
  | Mrt.Skip -> Alcotest.failf "%s: skipped" label
  | Mrt.Malformed e -> Alcotest.failf "%s: %s" label e

let malformed label ~msg line =
  match Mrt.record_of_line line with
  | Mrt.Malformed e -> Alcotest.(check string) label msg e
  | Mrt.Skip | Mrt.Parsed _ -> Alcotest.failf "%s should not parse" label

(* What mrt.mli promises the scanner accepts, and the bounds it keeps. *)
let accepted_forms () =
  let canonical = Mrt.record_to_line sample_record in
  let same label line =
    check_bool label true (parses label line = parses "canonical" canonical)
  in
  same "surrounding whitespace" ("  \t" ^ canonical ^ " \r\n");
  same "TABLE_DUMP kind"
    "TABLE_DUMP|1131867000|B|12.0.1.63|7018|3.0.0.0/8|7018 701 703|IGP|12.0.1.63|100|0|7018:5000|NAG||";
  same "no trailing fields"
    "TABLE_DUMP2|1131867000|B|12.0.1.63|7018|3.0.0.0/8|7018 701 703|IGP|12.0.1.63|100|0|7018:5000";
  same "repeated spaces"
    "TABLE_DUMP2|1131867000|B|12.0.1.63|7018|3.0.0.0/8| 7018  701   703 |IGP|12.0.1.63|100|0|  7018:5000 |NAG||";
  same "leading zeros"
    "TABLE_DUMP2|01131867000|B|012.0.001.63|07018|3.0.0.0/08|7018 0701 703|IGP|12.0.1.63|0100|00|7018:05000|NAG|x|y|z";
  let empty_path =
    parses "empty path"
      "TABLE_DUMP2|1|B|1.2.3.4|7018|3.0.0.0/8||IGP|1.2.3.4|0|0||NAG||"
  in
  check_bool "empty path" true (Aspath.is_empty empty_path.Mrt.path);
  check_int "max_int time" max_int
    (parses "max_int"
       (Printf.sprintf "TABLE_DUMP2|%d|B|1.2.3.4|7018|3.0.0.0/8|7018|IGP|1.2.3.4|0|0||NAG||"
          max_int))
      .Mrt.time;
  check_bool "comment" true (Mrt.record_of_line "  # note" = Mrt.Skip);
  check_bool "blank" true (Mrt.record_of_line " \t\r" = Mrt.Skip);
  let line fields = String.concat "|" fields in
  let fields =
    [ "TABLE_DUMP2"; "1"; "B"; "1.2.3.4"; "7018"; "3.0.0.0/8"; "7018 701";
      "IGP"; "1.2.3.4"; "100"; "0"; "7018:1"; "NAG"; ""; "" ]
  in
  let with_field i v = line (List.mapi (fun j f -> if j = i then v else f) fields) in
  let too_big = string_of_int max_int ^ "0" in
  malformed "time overflow" ~msg:("time: integer out of range \"" ^ too_big ^ "\"")
    (with_field 1 too_big);
  malformed "time sign" ~msg:"time: not an integer \"-1\"" (with_field 1 "-1");
  malformed "AS 0" ~msg:"bad peer_as 0" (with_field 4 "0");
  malformed "AS overflow" ~msg:("bad peer_as " ^ too_big) (with_field 4 too_big);
  malformed "hop 0" ~msg:"bad as_path 7018 0" (with_field 6 "7018 0");
  malformed "octet > 255" ~msg:"bad peer_ip 1.2.3.256" (with_field 3 "1.2.3.256");
  malformed "four-digit octet" ~msg:"bad next_hop 1.2.3.0004" (with_field 8 "1.2.3.0004");
  malformed "length > 32" ~msg:"bad prefix 3.0.0.0/33" (with_field 5 "3.0.0.0/33");
  malformed "overlong length" ~msg:"bad prefix 3.0.0.0/99999999999999999999999"
    (with_field 5 "3.0.0.0/99999999999999999999999");
  malformed "med overflow" ~msg:("med: integer out of range \"" ^ too_big ^ "\"")
    (with_field 10 too_big);
  malformed "community overflow" ~msg:("bad community 1:" ^ too_big)
    (with_field 11 ("1:" ^ too_big));
  malformed "lowercase origin" ~msg:"bad origin igp" (with_field 7 "igp");
  malformed "tab in path" ~msg:"bad as_path 7018\t701" (with_field 6 "7018\t701");
  malformed "unknown kind" ~msg:"unknown record kind \"BOGUS\"" (with_field 0 "BOGUS");
  malformed "subtype" ~msg:"unsupported subtype \"A\" (want B)" (with_field 2 "A");
  malformed "too few" ~msg:"too few fields" "BOGUS|1|B";
  (* The line the overlong length once turned into an exception. *)
  malformed "overlong length, verbatim"
    ~msg:"bad prefix 3.0.0.0/99999999999999999999999"
    "TABLE_DUMP2|1|B|1.2.3.4|7018|3.0.0.0/99999999999999999999999|7018|IGP|1.2.3.4|0|0||NAG||"

(* Generated records over the whole range each field may take. *)
let gen_record =
  QCheck.Gen.(
    let nat = oneof [ int_range 0 1000; int_range 0 max_int ] in
    let asn = oneof [ int_range 1 70000; int_range 1 max_int ] in
    let ip = map Ipv4.of_int (int_range 0 0xFFFFFFFF) in
    let* time = nat in
    let* peer_ip = ip in
    let* peer_as = asn in
    let* network = ip in
    let* len = int_range 0 32 in
    let* path = list_size (int_range 0 8) asn in
    let* origin = oneofl [ Attrs.Igp; Attrs.Egp; Attrs.Incomplete ] in
    let* next_hop = ip in
    let* local_pref = nat in
    let* med = nat in
    let* communities = list_size (int_range 0 3) (pair nat nat) in
    return
      {
        Mrt.time;
        peer_ip;
        peer_as;
        prefix = Prefix.make network len;
        path = Aspath.of_list path;
        attrs = { Attrs.origin; next_hop; local_pref; med; communities };
      })

let arb_record = QCheck.make ~print:Mrt.record_to_line gen_record

(* The dump text spelled out with [Printf] and [String.concat], apart
   from the buffer writers that [to_string] and [record_to_line] share. *)
let reference_ip ip =
  let o1, o2, o3, o4 = Ipv4.octets ip in
  Printf.sprintf "%d.%d.%d.%d" o1 o2 o3 o4

let reference_line (r : Mrt.record) =
  let a = r.Mrt.attrs in
  String.concat "|"
    [ "TABLE_DUMP2"; string_of_int r.Mrt.time; "B"; reference_ip r.Mrt.peer_ip;
      string_of_int r.Mrt.peer_as;
      Printf.sprintf "%s/%d" (reference_ip (Prefix.network r.Mrt.prefix))
        (Prefix.length r.Mrt.prefix);
      String.concat " " (List.map string_of_int (Aspath.to_list r.Mrt.path));
      Attrs.origin_to_string a.Attrs.origin;
      reference_ip a.Attrs.next_hop; string_of_int a.Attrs.local_pref;
      string_of_int a.Attrs.med;
      String.concat " "
        (List.map (fun (x, v) -> Printf.sprintf "%d:%d" x v) a.Attrs.communities);
      "NAG"; ""; "" ]

let prop_print_parse =
  QCheck.Test.make ~name:"print then parse is the identity" ~count:500
    arb_record (fun r ->
      let line = Mrt.record_to_line r in
      line = reference_line r && Mrt.record_of_line line = Mrt.Parsed r)

let prop_parse_print =
  QCheck.Test.make ~name:"parse then print is a fixed point" ~count:500
    arb_record (fun r ->
      let line = Mrt.record_to_line r in
      match Mrt.record_of_line line with
      | Mrt.Parsed r' -> Mrt.record_to_line r' = line
      | Mrt.Skip | Mrt.Malformed _ -> false)

(* Index just past the [n]-th '|' of [s] (1-based). *)
let after_bar s n =
  let rec go i k = if s.[i] = '|' then if k = n then i + 1 else go (i + 1) (k + 1) else go (i + 1) k in
  go 0 1

let is_malformed = function Mrt.Malformed _ -> true | Mrt.Skip | Mrt.Parsed _ -> false

let total line =
  match Mrt.record_of_line line with
  | _ -> true
  | exception e -> QCheck.Test.fail_reportf "%S raised %s" line (Printexc.to_string e)

let prop_damaged =
  QCheck.Test.make ~name:"damaged lines are Malformed, never an exception"
    ~count:500
    (QCheck.pair arb_record (QCheck.make QCheck.Gen.(pair nat (int_range 0 255))))
    (fun (r, (k, byte)) ->
      let line = Mrt.record_to_line r in
      let n = String.length line in
      (* Cut before the eleventh bar: fewer than twelve fields. *)
      let cut = String.sub line 0 (1 + (k mod (after_bar line 11 - 1))) in
      (* A byte outside the grammar anywhere up to the community field's end. *)
      let i = k mod (after_bar line 12 - 1) in
      let flipped = String.mapi (fun j c -> if j = i then '!' else c) line in
      (* Twenty more digits after any digit overflow whatever holds it. *)
      let digits = List.filter (fun j -> line.[j] >= '0' && line.[j] <= '9') (List.init n Fun.id) in
      let d = List.nth digits (k mod List.length digits) in
      let inflated = String.sub line 0 (d + 1) ^ String.make 20 '9' ^ String.sub line (d + 1) (n - d - 1) in
      (* Any byte anywhere, and any cut: parsed or not, never raised. *)
      let any = String.mapi (fun j c -> if j = k mod n then Char.chr byte else c) line in
      total (String.sub line 0 (k mod (n + 1))) && total any
      && total cut && total flipped && total inflated
      && is_malformed (Mrt.record_of_line cut)
      && is_malformed (Mrt.record_of_line flipped)
      && is_malformed (Mrt.record_of_line inflated))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick roundtrip;
    Alcotest.test_case "real-world line" `Quick real_world_line;
    Alcotest.test_case "comments skipped" `Quick comments_skipped;
    Alcotest.test_case "malformed fields" `Quick malformed_fields;
    Alcotest.test_case "file roundtrip" `Quick file_roundtrip;
    Alcotest.test_case "accepted forms and bounds" `Quick accepted_forms;
    QCheck_alcotest.to_alcotest prop_print_parse;
    QCheck_alcotest.to_alcotest prop_parse_print;
    QCheck_alcotest.to_alcotest prop_damaged;
  ]
