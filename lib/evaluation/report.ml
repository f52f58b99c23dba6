let section ppf id title =
  Format.fprintf ppf "@.== %s: %s ==@." id title

let table ppf ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c w ->
        let cell = Option.value ~default:"" (List.nth_opt row c) in
        Format.fprintf ppf "%-*s  " w cell)
      widths;
    Format.fprintf ppf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let int_series ppf ~x ~y series =
  table ppf ~header:[ x; y ]
    (List.map (fun (a, b) -> [ string_of_int a; string_of_int b ]) series)

let kv ppf pairs =
  let w = List.fold_left (fun m (k, _) -> max m (String.length k)) 0 pairs in
  List.iter (fun (k, v) -> Format.fprintf ppf "%-*s  %s@." w k v) pairs
