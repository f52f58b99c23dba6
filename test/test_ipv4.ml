(* Unit and property tests for Bgp.Ipv4. *)

open Bgp

let check_str = Alcotest.(check string)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let roundtrip () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Some a -> check_str s s (Ipv4.to_string a)
      | None -> Alcotest.failf "did not parse %s" s)
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "192.168.1.254"; "1.2.3.4" ]

let rejects_malformed () =
  List.iter
    (fun s ->
      check_bool s true (Ipv4.of_string s = None))
    [
      "";
      "1.2.3";
      "1.2.3.4.5";
      "256.1.1.1";
      "1.2.3.256";
      "a.b.c.d";
      "1..2.3";
      "1.2.3.4 ";
      " 1.2.3.4";
      "1.2.3.04x";
      "-1.2.3.4";
      "1.2.3.4/8";
    ]

let octet_roundtrip () =
  let a = Ipv4.of_octets 192 0 2 33 in
  check_str "render" "192.0.2.33" (Ipv4.to_string a);
  let o1, o2, o3, o4 = Ipv4.octets a in
  check_int "o1" 192 o1;
  check_int "o2" 0 o2;
  check_int "o3" 2 o3;
  check_int "o4" 33 o4

let of_octets_range () =
  Alcotest.check_raises "octet 256" (Invalid_argument "Ipv4.of_octets: octet out of range")
    (fun () -> ignore (Ipv4.of_octets 256 0 0 0));
  Alcotest.check_raises "negative" (Invalid_argument "Ipv4.of_octets: octet out of range")
    (fun () -> ignore (Ipv4.of_octets 0 (-1) 0 0))

let masks () =
  check_str "mask 0" "0.0.0.0" (Ipv4.to_string (Ipv4.mask_bits 0));
  check_str "mask 8" "255.0.0.0" (Ipv4.to_string (Ipv4.mask_bits 8));
  check_str "mask 24" "255.255.255.0" (Ipv4.to_string (Ipv4.mask_bits 24));
  check_str "mask 32" "255.255.255.255" (Ipv4.to_string (Ipv4.mask_bits 32));
  check_str "apply"
    "10.1.0.0"
    (Ipv4.to_string (Ipv4.apply_mask 16 (Ipv4.of_octets 10 1 2 3)))

let ordering () =
  let a = Ipv4.of_octets 10 0 0 1 and b = Ipv4.of_octets 10 0 0 2 in
  check_bool "lt" true (Ipv4.compare a b < 0);
  check_bool "eq" true (Ipv4.equal a a);
  check_bool "succ" true (Ipv4.equal (Ipv4.of_int (Ipv4.to_int a + 1)) b);
  (* [of_int] wraps at 255.255.255.255 *)
  check_str "wrap" "0.0.0.0"
    (Ipv4.to_string (Ipv4.of_int (Ipv4.to_int (Ipv4.of_octets 255 255 255 255) + 1)))

let prop_roundtrip =
  QCheck.Test.make ~name:"ipv4 string roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun n ->
      let a = Ipv4.of_int n in
      match Ipv4.of_string (Ipv4.to_string a) with
      | Some b -> Ipv4.equal a b
      | None -> false)

let prop_mask_idempotent =
  QCheck.Test.make ~name:"mask idempotent" ~count:500
    QCheck.(pair (int_bound 32) (int_bound 0xFFFFFFF))
    (fun (len, n) ->
      let a = Ipv4.of_int n in
      Ipv4.equal (Ipv4.apply_mask len a) (Ipv4.apply_mask len (Ipv4.apply_mask len a)))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick roundtrip;
    Alcotest.test_case "rejects malformed" `Quick rejects_malformed;
    Alcotest.test_case "octets" `Quick octet_roundtrip;
    Alcotest.test_case "of_octets range check" `Quick of_octets_range;
    Alcotest.test_case "masks" `Quick masks;
    Alcotest.test_case "ordering and succ" `Quick ordering;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_mask_idempotent;
  ]
