(* Unit and property tests for Bgp.Prefix. *)

open Bgp

let check_str = Alcotest.(check string)

let check_bool = Alcotest.(check bool)

let parse_print () =
  List.iter
    (fun s ->
      match Prefix.of_string s with
      | Some p -> check_str s s (Prefix.to_string p)
      | None -> Alcotest.failf "did not parse %s" s)
    [ "0.0.0.0/0"; "10.0.0.0/8"; "192.0.2.0/24"; "1.2.3.4/32" ]

let canonicalization () =
  let p = Prefix.of_string_exn "10.1.2.3/16" in
  check_str "host bits zeroed" "10.1.0.0/16" (Prefix.to_string p);
  check_bool "equal to canonical form" true
    (Prefix.equal p (Prefix.of_string_exn "10.1.0.0/16"))

let rejects_malformed () =
  List.iter
    (fun s -> check_bool s true (Prefix.of_string s = None))
    [ ""; "10.0.0.0"; "10.0.0.0/"; "10.0.0.0/33"; "10.0.0.0/-1"; "/8";
      "10.0.0/8"; "10.0.0.0/8/9"; "10.0.0.0/x";
      (* Once an int_of_string failure, now just malformed. *)
      "10.0.0.0/99999999999999999999999"; "10.0.0.0/0000000000000000000000033" ];
  check_bool "leading zeros" true
    (Prefix.of_string "10.0.0.0/0000000000000000000000008"
    = Some (Prefix.of_string_exn "10.0.0.0/8"))

let membership () =
  let p = Prefix.of_string_exn "192.0.2.0/24" in
  check_bool "inside" true (Prefix.mem (Ipv4.of_octets 192 0 2 200) p);
  check_bool "outside" false (Prefix.mem (Ipv4.of_octets 192 0 3 1) p);
  check_bool "default contains all" true
    (Prefix.mem (Ipv4.of_octets 8 8 8 8) Prefix.default)

let ordering_consistency () =
  let a = Prefix.of_string_exn "10.0.0.0/8" in
  let b = Prefix.of_string_exn "10.0.0.0/16" in
  check_bool "shorter first on same network" true (Prefix.compare a b < 0);
  check_bool "hash equal for equal" true (Prefix.hash a = Prefix.hash a)

let containers () =
  let ps =
    List.map Prefix.of_string_exn [ "10.0.0.0/8"; "10.0.0.0/8"; "11.0.0.0/8" ]
  in
  let set = Prefix.Set.of_list ps in
  Alcotest.(check int) "set dedups" 2 (Prefix.Set.cardinal set);
  let table = Prefix.Table.create 4 in
  List.iter (fun p -> Prefix.Table.replace table p ()) ps;
  Alcotest.(check int) "table dedups" 2 (Prefix.Table.length table)

(* Hash tables pick a bucket from the low bits: the origin /24s of
   ASes 1..256 must spread over 64 buckets, not share one chain. *)
let hash_spreads_origin_prefixes () =
  let buckets = Hashtbl.create 64 in
  for asn = 1 to 256 do
    Hashtbl.replace buckets (Prefix.hash (Asn.origin_prefix asn) land 63) ()
  done;
  check_bool
    (Printf.sprintf "%d of 64 buckets used" (Hashtbl.length buckets))
    true
    (Hashtbl.length buckets >= 32)

let gen_prefix =
  QCheck.Gen.(
    map2
      (fun addr len -> Prefix.make (Ipv4.of_int addr) len)
      (int_bound 0xFFFFFFF) (int_bound 32))

let arb_prefix = QCheck.make ~print:Prefix.to_string gen_prefix

let prop_roundtrip =
  QCheck.Test.make ~name:"prefix string roundtrip" ~count:500 arb_prefix
    (fun p ->
      match Prefix.of_string (Prefix.to_string p) with
      | Some q -> Prefix.equal p q
      | None -> false)

let prop_network_in_prefix =
  QCheck.Test.make ~name:"network address is member" ~count:500 arb_prefix
    (fun p -> Prefix.mem (Prefix.network p) p)

let prop_compare_total =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    (QCheck.pair arb_prefix arb_prefix)
    (fun (a, b) ->
      let c1 = Prefix.compare a b and c2 = Prefix.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let suite =
  [
    Alcotest.test_case "parse/print" `Quick parse_print;
    Alcotest.test_case "canonicalization" `Quick canonicalization;
    Alcotest.test_case "rejects malformed" `Quick rejects_malformed;
    Alcotest.test_case "membership" `Quick membership;
    Alcotest.test_case "ordering" `Quick ordering_consistency;
    Alcotest.test_case "containers" `Quick containers;
    Alcotest.test_case "hash spreads origin prefixes" `Quick
      hash_spreads_origin_prefixes;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_network_in_prefix;
    QCheck_alcotest.to_alcotest prop_compare_total;
  ]
