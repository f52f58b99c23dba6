(* Tests for the extension features: C-BGP script export. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let cbgp_export_shape () =
  let graph = Topology.Asgraph.of_edges [ (1, 2); (2, 3) ] in
  let m = Asmodel.Qrmodel.initial graph in
  let n2 = List.hd (Simulator.Net.nodes_of_as m.Asmodel.Qrmodel.net 2) in
  let n1 = List.hd (Simulator.Net.nodes_of_as m.Asmodel.Qrmodel.net 1) in
  let s21 = Option.get (Simulator.Net.find_session m.Asmodel.Qrmodel.net n2 n1) in
  Simulator.Net.deny_export m.Asmodel.Qrmodel.net n2 s21 (Asn.origin_prefix 3);
  Simulator.Net.set_import_med m.Asmodel.Qrmodel.net n1 s21 (Asn.origin_prefix 3) 0;
  let lines = Asmodel.Cbgp_export.to_lines m in
  let count pred = List.length (List.filter pred lines) in
  let has_prefix p l = String.length l >= String.length p
                       && String.sub l 0 (String.length p) = p in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  check_int "3 nodes" 3 (count (has_prefix "net add node"));
  check_int "2 links" 2 (count (has_prefix "net add link"));
  check_int "3 bgp routers" 3 (count (has_prefix "bgp add router"));
  check_int "4 peers (two per session)" 4
    (count (fun l -> has_prefix "bgp router" l && contains "add peer" l));
  check_bool "always-compare med" true
    (List.mem "bgp options med always-compare" lines);
  check_int "one deny filter" 1 (count (contains "action deny"));
  check_bool "one med filter" true (List.exists (contains "metric 0") lines);
  check_bool "originations present" true
    (List.exists (contains "add network") lines);
  check_bool "ends with sim run" true (List.mem "sim run" lines)

let suite =
  [
    Alcotest.test_case "cbgp export shape" `Quick cbgp_export_shape;
  ]
