type obs_point = { op_ip : Ipv4.t; op_as : Asn.t }

let obs_point_compare a b =
  let c = Ipv4.compare a.op_ip b.op_ip in
  if c <> 0 then c else Asn.compare a.op_as b.op_as

type entry = { op : obs_point; prefix : Prefix.t; path : Aspath.t }

type cleaning_stats = {
  raw : int;
  dropped_loops : int;
  dropped_empty : int;
  deduplicated : int;
}

type t = { entries : entry array }

let entry_compare a b =
  let c = obs_point_compare a.op b.op in
  if c <> 0 then c
  else
    let c = Prefix.compare a.prefix b.prefix in
    if c <> 0 then c else Aspath.compare a.path b.path

let rec sorted entries i =
  i >= Array.length entries
  || (entry_compare entries.(i - 1) entries.(i) <= 0 && sorted entries (i + 1))

(* Sorts [entries] in place and keeps one of each run of equal ones.
   Dumps are written sorted, so an array already in order skips the
   sort. *)
let dedup_sorted entries =
  if not (sorted entries 1) then Array.stable_sort entry_compare entries;
  let n = Array.length entries in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || entry_compare entries.(!k - 1) entries.(i) <> 0 then begin
      entries.(!k) <- entries.(i);
      incr k
    end
  done;
  if !k = n then entries else Array.sub entries 0 !k

let of_records records =
  let raw = List.length records in
  let dropped_loops = ref 0 in
  let dropped_empty = ref 0 in
  let clean r =
    let path = Aspath.remove_prepending r.Mrt.path in
    if Aspath.is_empty path then begin
      incr dropped_empty;
      None
    end
    else if Aspath.has_loop path then begin
      incr dropped_loops;
      None
    end
    else
      (* Collectors normally see the peer AS as first hop; tolerate dumps
         that omit it by reinstating it. *)
      let path =
        if Aspath.nth path 0 = r.Mrt.peer_as then path
        else Aspath.prepend r.Mrt.peer_as path
      in
      Some
        {
          op = { op_ip = r.Mrt.peer_ip; op_as = r.Mrt.peer_as };
          prefix = r.Mrt.prefix;
          path;
        }
  in
  let cleaned = Array.of_list (List.filter_map clean records) in
  let kept = Array.length cleaned in
  let deduped = dedup_sorted cleaned in
  let stats =
    {
      raw;
      dropped_loops = !dropped_loops;
      dropped_empty = !dropped_empty;
      deduplicated = kept - Array.length deduped;
    }
  in
  ({ entries = deduped }, stats)

let of_entries entries = { entries = dedup_sorted (Array.of_list entries) }

let entries t = Array.to_list t.entries

let size t = Array.length t.entries

let to_records ?(time = 0) t =
  let record e =
    {
      Mrt.time;
      peer_ip = e.op.op_ip;
      peer_as = e.op.op_as;
      prefix = e.prefix;
      path = e.path;
      attrs = Attrs.default ~next_hop:e.op.op_ip;
    }
  in
  Array.fold_right (fun e acc -> record e :: acc) t.entries []

let observation_points t =
  let module S = Set.Make (struct
    type nonrec t = obs_point

    let compare = obs_point_compare
  end) in
  Array.fold_left (fun acc e -> S.add e.op acc) S.empty t.entries
  |> S.elements

let prefixes t =
  Array.fold_left (fun acc e -> Prefix.Set.add e.prefix acc) Prefix.Set.empty
    t.entries
  |> Prefix.Set.elements

let origins t =
  Array.fold_left
    (fun acc e ->
      match Aspath.origin e.path with
      | Some o -> Asn.Set.add o acc
      | None -> acc)
    Asn.Set.empty t.entries

let all_paths t =
  Array.fold_left (fun acc e -> Aspath.Set.add e.path acc) Aspath.Set.empty
    t.entries
  |> Aspath.Set.elements

let by_prefix t =
  Array.fold_left
    (fun acc e ->
      Prefix.Map.update e.prefix
        (function None -> Some [ e ] | Some es -> Some (e :: es))
        acc)
    Prefix.Map.empty t.entries
  |> Prefix.Map.map List.rev

let paths_for_prefix t p =
  Array.fold_left
    (fun acc e -> if Prefix.equal e.prefix p then e :: acc else acc)
    [] t.entries
  |> List.rev

let union a b = of_entries (entries a @ entries b)

let restrict_points t points =
  let keep e = List.exists (fun p -> obs_point_compare e.op p = 0) points in
  { entries = Array.of_seq (Seq.filter keep (Array.to_seq t.entries)) }

let restrict_origins t set =
  let keep e =
    match Aspath.origin e.path with
    | Some o -> Asn.Set.mem o set
    | None -> false
  in
  { entries = Array.of_seq (Seq.filter keep (Array.to_seq t.entries)) }

let unique_paths_per_pair t =
  let table = Hashtbl.create 4096 in
  Array.iter
    (fun e ->
      match Aspath.origin e.path with
      | None -> ()
      | Some origin ->
          let key = (origin, e.op.op_as) in
          let set =
            match Hashtbl.find_opt table key with
            | Some s -> s
            | None -> Aspath.Set.empty
          in
          Hashtbl.replace table key (Aspath.Set.add e.path set))
    t.entries;
  table

let transfer_stub_origins t ~removed ~reprefix =
  let rewrite e =
    if Asn.Set.mem e.op.op_as removed then None
    else
      match Aspath.origin e.path with
      | None -> None
      | Some o when not (Asn.Set.mem o removed) -> Some e
      | Some _ ->
          let n = Aspath.length e.path in
          if n < 2 then None
          else
            let path' = Aspath.suffix_from e.path 0 in
            let path' =
              Aspath.of_array (Array.sub (Aspath.to_array path') 0 (n - 1))
            in
            (match Aspath.origin path' with
            | None -> None
            | Some new_origin ->
                if Asn.Set.mem new_origin removed then None
                else if Aspath.length path' < 1 then None
                else Some { e with path = path'; prefix = reprefix new_origin })
  in
  of_entries (List.filter_map rewrite (entries t))

let collapse_to_origin ?(reprefix = Asn.origin_prefix) t =
  let rewrite e =
    match Aspath.origin e.path with
    | None -> None
    | Some o -> Some { e with prefix = reprefix o }
  in
  of_entries (List.filter_map rewrite (entries t))

let save path t = Mrt.write_file path (to_records t)

let load path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let records, diagnostics =
    if Mrt_binary.looks_binary raw then
      let records, diags = Mrt_binary.read_bytes raw in
      (records, List.map (Printf.sprintf "%s: %s" path) diags)
    else
      let records, errors = Mrt.parse_lines (String.split_on_char '\n' raw) in
      let diagnostic (line, msg) = Printf.sprintf "%s:%d: %s" path line msg in
      (records, List.map diagnostic errors)
  in
  let data, stats = of_records records in
  (data, stats, diagnostics)
