(* Tests for Bgp.Rib: cleaning, indexing, splitting, stub transfer,
   loading. *)

open Bgp

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let op asn = { Rib.op_ip = Asn.router_ip asn 0; op_as = asn }

let record ?(peer = 1) ?(prefix = Asn.origin_prefix 6) path_list =
  {
    Mrt.time = 0;
    peer_ip = Asn.router_ip peer 0;
    peer_as = peer;
    prefix;
    path = Aspath.of_list path_list;
    attrs = Attrs.default ~next_hop:(Asn.router_ip peer 0);
  }

let cleaning () =
  let records =
    [
      record [ 1; 7; 6 ];
      record [ 1; 1; 7; 7; 6 ];
      (* prepending, same path after cleanup *)
      record [ 1; 7; 1; 6 ];
      (* loop: dropped *)
      record ~peer:2 [ 8; 6 ];
      (* peer AS missing from path head: reinstated *)
    ]
  in
  let data, stats = Rib.of_records records in
  check_int "raw" 4 stats.Rib.raw;
  check_int "loops dropped" 1 stats.Rib.dropped_loops;
  check_int "dedup" 1 stats.Rib.deduplicated;
  check_int "kept" 2 (Rib.size data);
  let paths = Rib.all_paths data in
  check_bool "head reinstated" true
    (List.exists (fun p -> Aspath.to_list p = [ 2; 8; 6 ]) paths)

let indexing () =
  let data =
    Rib.of_entries
      [
        { Rib.op = op 1; prefix = Asn.origin_prefix 6; path = Aspath.of_list [ 1; 7; 6 ] };
        { Rib.op = op 1; prefix = Asn.origin_prefix 6; path = Aspath.of_list [ 1; 8; 6 ] };
        { Rib.op = op 2; prefix = Asn.origin_prefix 5; path = Aspath.of_list [ 2; 5 ] };
      ]
  in
  check_int "entries" 3 (Rib.size data);
  check_int "observation points" 2 (List.length (Rib.observation_points data));
  check_int "prefixes" 2 (List.length (Rib.prefixes data));
  check_bool "origins" true (Asn.Set.equal (Rib.origins data) (Asn.Set.of_list [ 5; 6 ]));
  check_int "paths for prefix 6" 2
    (List.length (Rib.paths_for_prefix data (Asn.origin_prefix 6)));
  let by_prefix = Rib.by_prefix data in
  check_int "by_prefix groups" 2 (Prefix.Map.cardinal by_prefix)

let restriction () =
  let e1 = { Rib.op = op 1; prefix = Asn.origin_prefix 6; path = Aspath.of_list [ 1; 6 ] } in
  let e2 = { Rib.op = op 2; prefix = Asn.origin_prefix 6; path = Aspath.of_list [ 2; 6 ] } in
  let e3 = { Rib.op = op 2; prefix = Asn.origin_prefix 9; path = Aspath.of_list [ 2; 9 ] } in
  let data = Rib.of_entries [ e1; e2; e3 ] in
  let only1 = Rib.restrict_points data [ op 1 ] in
  check_int "restrict to op1" 1 (Rib.size only1);
  let only9 = Rib.restrict_origins data (Asn.Set.singleton 9) in
  check_int "restrict to origin 9" 1 (Rib.size only9)

let pair_diversity () =
  let data =
    Rib.of_entries
      [
        { Rib.op = op 1; prefix = Asn.nth_prefix 6 0; path = Aspath.of_list [ 1; 7; 6 ] };
        { Rib.op = op 1; prefix = Asn.nth_prefix 6 1; path = Aspath.of_list [ 1; 8; 6 ] };
      ]
  in
  let pairs = Rib.unique_paths_per_pair data in
  check_int "one pair" 1 (Hashtbl.length pairs);
  check_int "two distinct paths" 2
    (Aspath.Set.cardinal (Hashtbl.find pairs (6, 1)))

let collapse () =
  let data =
    Rib.of_entries
      [
        { Rib.op = op 1; prefix = Asn.nth_prefix 6 2; path = Aspath.of_list [ 1; 7; 6 ] };
        { Rib.op = op 1; prefix = Asn.nth_prefix 6 1; path = Aspath.of_list [ 1; 7; 6 ] };
      ]
  in
  let collapsed = Rib.collapse_to_origin data in
  check_int "merged to one prefix and deduped" 1 (Rib.size collapsed);
  check_bool "canonical prefix" true
    (List.for_all
       (fun (e : Rib.entry) -> Prefix.equal e.prefix (Asn.origin_prefix 6))
       (Rib.entries collapsed))

let stub_transfer () =
  (* AS 9 is a single-homed stub behind AS 7; its path info moves to
     AS 7's prefix. *)
  let data =
    Rib.of_entries
      [
        { Rib.op = op 1; prefix = Asn.origin_prefix 9; path = Aspath.of_list [ 1; 7; 9 ] };
        { Rib.op = op 1; prefix = Asn.origin_prefix 7; path = Aspath.of_list [ 1; 7 ] };
      ]
  in
  let removed = Asn.Set.singleton 9 in
  let out = Rib.transfer_stub_origins data ~removed ~reprefix:Asn.origin_prefix in
  check_int "deduped into one entry" 1 (Rib.size out);
  List.iter
    (fun (e : Rib.entry) ->
      check_bool "prefix is AS7's" true (Prefix.equal e.prefix (Asn.origin_prefix 7));
      check_bool "path truncated" true (Aspath.to_list e.path = [ 1; 7 ]))
    (Rib.entries out)

let stub_transfer_drops_removed_observers () =
  let data =
    Rib.of_entries
      [ { Rib.op = op 9; prefix = Asn.origin_prefix 7; path = Aspath.of_list [ 9; 7 ] } ]
  in
  let out =
    Rib.transfer_stub_origins data ~removed:(Asn.Set.singleton 9)
      ~reprefix:Asn.origin_prefix
  in
  check_int "entry observed inside removed stub dropped" 0 (Rib.size out)

let with_temp f =
  let tmp = Filename.temp_file "rib_test" ".dump" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> f tmp)

(* A text dump and its binary twin load as the data set saved: the
   loader tells the two apart by their bytes. *)
let save_load_roundtrip () =
  let data =
    Rib.of_entries
      [
        { Rib.op = op 1; prefix = Asn.origin_prefix 6; path = Aspath.of_list [ 1; 7; 6 ] };
        { Rib.op = op 2; prefix = Asn.origin_prefix 5; path = Aspath.of_list [ 2; 5 ] };
      ]
  in
  with_temp @@ fun text ->
  with_temp @@ fun binary ->
  Rib.save text data;
  Mrt_binary.write_file binary (Rib.to_records data);
  List.iter
    (fun (label, path) ->
      let loaded, stats, diagnostics = Rib.load path in
      check_int (label ^ " no diagnostics") 0 (List.length diagnostics);
      check_int (label ^ " no drops") 0
        (stats.Rib.dropped_loops + stats.Rib.dropped_empty);
      check_bool (label ^ " same entries") true
        (Rib.entries data = Rib.entries loaded))
    [ ("text", text); ("binary", binary) ]

(* A malformed line is reported by its number and costs only itself. *)
let load_reports_bad_line () =
  with_temp @@ fun tmp ->
  Out_channel.with_open_text tmp (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [
          Mrt.record_to_line (record [ 1; 7; 6 ]);
          "TABLE_DUMP2|0|B|1.0.0.1|1|6.0.0.0/8|1 x 6|IGP|1.0.0.1|0|0||NAG||";
          Mrt.record_to_line (record ~peer:2 [ 2; 6 ]);
        ]);
  let data, stats, diagnostics = Rib.load tmp in
  check_int "good lines loaded" 2 (Rib.size data);
  check_int "raw counts parsed lines" 2 stats.Rib.raw;
  Alcotest.(check (list string))
    "one diagnostic, at line 2"
    [ tmp ^ ":2: bad as_path 1 x 6" ]
    diagnostics

let suite =
  [
    Alcotest.test_case "cleaning" `Quick cleaning;
    Alcotest.test_case "indexing" `Quick indexing;
    Alcotest.test_case "restriction" `Quick restriction;
    Alcotest.test_case "pair diversity" `Quick pair_diversity;
    Alcotest.test_case "collapse to origin" `Quick collapse;
    Alcotest.test_case "stub transfer" `Quick stub_transfer;
    Alcotest.test_case "stub transfer drops removed observers" `Quick
      stub_transfer_drops_removed_observers;
    Alcotest.test_case "save/load roundtrip" `Quick save_load_roundtrip;
    Alcotest.test_case "load reports a bad line" `Quick load_reports_bad_line;
  ]
