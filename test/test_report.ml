(* Golden tests for the experiment report formatting. *)

let check_str = Alcotest.(check string)

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let table_layout () =
  let out =
    render (fun ppf ->
        Evaluation.Report.table ppf ~header:[ "a"; "long-header" ]
          [ [ "xx"; "1" ]; [ "y" ] ])
  in
  check_str "layout"
    "a   long-header  \n\
     --  -----------  \n\
     xx  1            \n\
     y                \n"
    out

let int_series_layout () =
  let out =
    render (fun ppf ->
        Evaluation.Report.int_series ppf ~x:"k" ~y:"n" [ (1, 10); (2, 5) ])
  in
  check_str "series"
    "k  n   \n\
     -  --  \n\
     1  10  \n\
     2  5   \n"
    out

let kv_alignment () =
  let out =
    render (fun ppf ->
        Evaluation.Report.kv ppf [ ("short", "1"); ("a longer key", "2") ])
  in
  check_str "kv"
    "short         1\na longer key  2\n"
    out

let section_banner () =
  let out = render (fun ppf -> Evaluation.Report.section ppf "T1" "title") in
  check_str "banner" "\n== T1: title ==\n" out

let empty_table () =
  let out =
    render (fun ppf -> Evaluation.Report.table ppf ~header:[ "only" ] [])
  in
  check_str "header only" "only  \n----  \n" out

let suite =
  [
    Alcotest.test_case "table layout" `Quick table_layout;
    Alcotest.test_case "int series layout" `Quick int_series_layout;
    Alcotest.test_case "kv alignment" `Quick kv_alignment;
    Alcotest.test_case "section banner" `Quick section_banner;
    Alcotest.test_case "empty table" `Quick empty_table;
  ]
