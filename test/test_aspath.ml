(* Tests for Bgp.Aspath: normalization, suffixes, loops. *)

open Bgp

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let path = Aspath.of_list

let basics () =
  let p = path [ 1; 2; 3 ] in
  check_int "length" 3 (Aspath.length p);
  check_bool "head" true (Aspath.head p = Some 1);
  check_bool "origin" true (Aspath.origin p = Some 3);
  check_bool "empty" true (Aspath.is_empty Aspath.empty);
  check_bool "head of empty" true (Aspath.head Aspath.empty = None);
  check_bool "origin of empty" true (Aspath.origin Aspath.empty = None)

let prepend_drop () =
  let p = path [ 2; 3 ] in
  let q = Aspath.prepend 1 p in
  check_bool "prepend" true (Aspath.equal q (path [ 1; 2; 3 ]));
  check_bool "drop" true (Aspath.equal (Aspath.drop_head q) p);
  Alcotest.check_raises "drop empty" (Invalid_argument "Aspath.drop_head")
    (fun () -> ignore (Aspath.drop_head Aspath.empty))

let suffixes () =
  let p = path [ 1; 2; 3 ] in
  let sfx = Aspath.suffixes p in
  check_int "count" 3 (List.length sfx);
  check_bool "longest first" true
    (List.map Aspath.to_list sfx = [ [ 1; 2; 3 ]; [ 2; 3 ]; [ 3 ] ]);
  check_bool "suffix_from" true
    (Aspath.equal (Aspath.suffix_from p 1) (path [ 2; 3 ]))

let prepending () =
  let p = path [ 1; 1; 2; 2; 2; 3 ] in
  check_bool "collapsed" true
    (Aspath.equal (Aspath.remove_prepending p) (path [ 1; 2; 3 ]));
  check_bool "idempotent" true
    (Aspath.equal
       (Aspath.remove_prepending (Aspath.remove_prepending p))
       (Aspath.remove_prepending p));
  check_bool "no-op on clean path" true
    (Aspath.equal (Aspath.remove_prepending (path [ 1; 2; 3 ])) (path [ 1; 2; 3 ]));
  let clean = path [ 1; 2; 3 ] in
  check_bool "clean path shared, not copied" true
    (Aspath.remove_prepending clean == clean)

let loops () =
  check_bool "simple loop" true (Aspath.has_loop (path [ 1; 2; 1 ]));
  check_bool "clean" false (Aspath.has_loop (path [ 1; 2; 3 ]));
  (* Prepending runs are not loops. *)
  check_bool "prepending tolerated" false (Aspath.has_loop (path [ 1; 2; 2; 3 ]));
  (* ... but a reappearance after an interruption is. *)
  check_bool "reappearance" true (Aspath.has_loop (path [ 2; 2; 3; 2 ]))

let string_roundtrip () =
  let p = path [ 701; 1239; 24249 ] in
  check_bool "roundtrip" true
    (match Aspath.of_string (Aspath.to_string p) with
    | Some q -> Aspath.equal p q
    | None -> false);
  check_bool "empty string" true (Aspath.of_string "" = Some Aspath.empty);
  check_bool "as-set rejected" true (Aspath.of_string "701 {1,2}" = None);
  check_bool "junk rejected" true (Aspath.of_string "701 xyz" = None)

let pp_dashes () =
  Alcotest.(check string)
    "dash rendering" "1-7-6"
    (Format.asprintf "%a" Aspath.pp (path [ 1; 7; 6 ]))

let contains_index () =
  let p = path [ 4; 8; 15 ] in
  check_bool "contains" true (Aspath.contains 8 p);
  check_bool "not contains" false (Aspath.contains 16 p);
  check_int "index" 15 (Aspath.nth p 2)

let gen_path =
  QCheck.Gen.(list_size (int_bound 8) (int_range 1 50) >|= Aspath.of_list)

let arb_path = QCheck.make ~print:Aspath.to_string gen_path

let prop_string_roundtrip =
  QCheck.Test.make ~name:"aspath string roundtrip" ~count:500 arb_path
    (fun p ->
      match Aspath.of_string (Aspath.to_string p) with
      | Some q -> Aspath.equal p q
      | None -> false)

let prop_no_prepending_after_removal =
  QCheck.Test.make ~name:"remove_prepending kills adjacent dups" ~count:500
    arb_path
    (fun p ->
      let q = Aspath.to_array (Aspath.remove_prepending p) in
      let ok = ref true in
      for i = 1 to Array.length q - 1 do
        if q.(i) = q.(i - 1) then ok := false
      done;
      !ok)

(* Short paths over few ASes, so that repeats, prepending runs and
   equal-length pairs are common. *)
let arb_dense = QCheck.make ~print:Aspath.to_string
    QCheck.Gen.(list_size (int_bound 7) (int_range 1 4) >|= Aspath.of_list)

(* The definition has_loop replaced: a set of the hops seen outside
   prepending runs. *)
let reference_has_loop p =
  let p = Aspath.to_array p in
  let seen = Hashtbl.create 8 in
  let loop = ref false in
  Array.iteri
    (fun i a ->
      if i = 0 || a <> p.(i - 1) then begin
        if Hashtbl.mem seen a then loop := true;
        Hashtbl.replace seen a ()
      end)
    p;
  !loop

let prop_has_loop =
  QCheck.Test.make ~name:"has_loop = set-based definition" ~count:1000 arb_dense
    (fun p -> Aspath.has_loop p = reference_has_loop p)

(* Sets, maps and the sorted data sets depend on this order. *)
let prop_compare_is_stdlib =
  QCheck.Test.make ~name:"compare orders as Stdlib.compare" ~count:1000
    (QCheck.pair arb_dense arb_dense) (fun (p, q) ->
      let sign x = Stdlib.compare x 0 in
      sign (Aspath.compare p q)
      = sign (Stdlib.compare (Aspath.to_array p) (Aspath.to_array q))
      && Aspath.equal p q = (Aspath.to_array p = Aspath.to_array q))

let prop_suffix_count =
  QCheck.Test.make ~name:"n suffixes for length n" ~count:500 arb_path
    (fun p -> List.length (Aspath.suffixes p) = Aspath.length p)

let suite =
  [
    Alcotest.test_case "basics" `Quick basics;
    Alcotest.test_case "prepend/drop" `Quick prepend_drop;
    Alcotest.test_case "suffixes" `Quick suffixes;
    Alcotest.test_case "prepending removal" `Quick prepending;
    Alcotest.test_case "loop detection" `Quick loops;
    Alcotest.test_case "string roundtrip" `Quick string_roundtrip;
    Alcotest.test_case "pp dashes" `Quick pp_dashes;
    Alcotest.test_case "contains/index" `Quick contains_index;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_no_prepending_after_removal;
    QCheck_alcotest.to_alcotest prop_suffix_count;
    QCheck_alcotest.to_alcotest prop_has_loop;
    QCheck_alcotest.to_alcotest prop_compare_is_stdlib;
  ]
