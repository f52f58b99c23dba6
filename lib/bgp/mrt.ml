type record = {
  time : int;
  peer_ip : Ipv4.t;
  peer_as : Asn.t;
  prefix : Prefix.t;
  path : Aspath.t;
  attrs : Attrs.t;
}

type update =
  | Announce of record
  | Withdraw of { time : int; peer_ip : Ipv4.t; peer_as : Asn.t; prefix : Prefix.t }

type 'a line = Skip | Parsed of 'a | Malformed of string

(* ---------------- writing ---------------- *)

(* Every column goes straight into one buffer through its field type's
   [add_to_buffer], the writer that type's [to_string] runs. *)

let bar b = Buffer.add_char b '|'

(* [kind|time|subtype|...]: the columns after the subtype are the same
   for a table-dump line and an announcement. *)
let add_head b ~kind ~subtype ~time =
  Buffer.add_string b kind;
  bar b;
  Lex.add_int b time;
  bar b;
  Buffer.add_string b subtype;
  bar b

let add_record b ~kind ~subtype r =
  let a = r.attrs in
  add_head b ~kind ~subtype ~time:r.time;
  Ipv4.add_to_buffer b r.peer_ip;
  bar b;
  Lex.add_int b r.peer_as;
  bar b;
  Prefix.add_to_buffer b r.prefix;
  bar b;
  Aspath.add_to_buffer b r.path;
  bar b;
  Buffer.add_string b (Attrs.origin_to_string a.Attrs.origin);
  bar b;
  Ipv4.add_to_buffer b a.Attrs.next_hop;
  bar b;
  Lex.add_int b a.Attrs.local_pref;
  bar b;
  Lex.add_int b a.Attrs.med;
  bar b;
  Attrs.add_communities b a.Attrs.communities;
  Buffer.add_string b "|NAG||"

let to_line add =
  let b = Buffer.create 128 in
  add b;
  Buffer.contents b

let record_to_line r =
  to_line (fun b -> add_record b ~kind:"TABLE_DUMP2" ~subtype:"B" r)

let update_to_line = function
  | Announce r -> to_line (fun b -> add_record b ~kind:"BGP4MP" ~subtype:"A" r)
  | Withdraw { time; peer_ip; peer_as; prefix } ->
      to_line (fun b ->
          add_head b ~kind:"BGP4MP" ~subtype:"W" ~time;
          Ipv4.add_to_buffer b peer_ip;
          bar b;
          Lex.add_int b peer_as;
          bar b;
          Prefix.add_to_buffer b prefix)

(* ---------------- parsing ---------------- *)

(* The first malformed field, described; raised inside a line's scan
   and turned into [Malformed] at its end. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The bounds [String.trim] would keep. *)
let rec trim_left s i b = if i < b && is_space s.[i] then trim_left s (i + 1) b else i

let rec trim_right s a j = if j > a && is_space s.[j - 1] then trim_right s a (j - 1) else j

(* Whether [s.[i..b-1]] holds at least [n] '|'-separated fields. *)
let rec has_fields s i b n =
  n <= 1
  ||
  let j = Lex.find '|' s i b in
  j < b && has_fields s (j + 1) b (n - 1)

(* The fields of one trimmed line [s.[..last-1]]: the current one is
   [s.[start..stop-1]], and [next] past the last one is "too few
   fields".  A line short of the fields its kind needs says so whatever
   else is wrong with it, so a scan that fails counts the fields before
   it reports a field's own error: a well-formed line is walked once. *)
type cursor = { s : string; last : int; mutable start : int; mutable stop : int }

let too_few = Bad "too few fields"

let cursor s a b = { s; last = b; start = a; stop = Lex.find '|' s a b }

let next c =
  if c.stop >= c.last then raise too_few;
  c.start <- c.stop + 1;
  c.stop <- Lex.find '|' c.s c.start c.last

let text c = String.sub c.s c.start (c.stop - c.start)

let is c lit = Lex.equals c.s c.start c.stop lit

let int_in name s a b =
  let n = Lex.uint s a b in
  if n = Lex.not_digits then
    bad "%s: not an integer %S" name (String.sub s a (b - a))
  else if n = Lex.overflow then
    bad "%s: integer out of range %S" name (String.sub s a (b - a))
  else n

let int_field name c = int_in name c.s c.start c.stop

let parsed what parse c =
  match parse c.s c.start c.stop with
  | Some v -> v
  | None -> raise (Bad (what ^ text c))

(* Columns 3..11 of a table-dump or announcement line, the cursor on
   column 3; [time] (column 1) is read by the caller, after the kind and
   subtype checks. *)
let full_record c ~time =
  let peer_ip = parsed "bad peer_ip " Ipv4.of_substring c in
  next c;
  let peer_as = parsed "bad peer_as " Asn.of_substring c in
  next c;
  let prefix = parsed "bad prefix " Prefix.of_substring c in
  next c;
  let path = parsed "bad as_path " Aspath.of_substring c in
  next c;
  let origin = parsed "bad origin " Attrs.origin_of_substring c in
  next c;
  let next_hop = parsed "bad next_hop " Ipv4.of_substring c in
  next c;
  let local_pref = int_field "local_pref" c in
  next c;
  let med = int_field "med" c in
  next c;
  let communities = parsed "bad community " Attrs.communities_of_substring c in
  {
    time;
    peer_ip;
    peer_as;
    prefix;
    path;
    attrs = { Attrs.origin; next_hop; local_pref; med; communities };
  }

(* Moves from the kind column to the subtype column and returns the
   time column's bounds, read once the subtype is known. *)
let skip_time c =
  next c;
  let a = c.start and b = c.stop in
  next c;
  (a, b)

let scan_record s a b =
  let c = cursor s a b in
  try
    if not (is c "TABLE_DUMP2" || is c "TABLE_DUMP") then
      bad "unknown record kind %S" (text c);
    let ta, tb = skip_time c in
    if not (is c "B") then bad "unsupported subtype %S (want B)" (text c);
    let time = int_in "time" s ta tb in
    next c;
    full_record c ~time
  with Bad _ when not (has_fields s a b 12) -> raise too_few

let scan_update s a b =
  let c = cursor s a b in
  if not (is c "BGP4MP") then bad "not an update line (kind %S)" (text c);
  let ta, tb = skip_time c in
  if is c "A" then
    try
      let time = int_in "time" s ta tb in
      next c;
      Announce (full_record c ~time)
    with Bad _ when not (has_fields s a b 12) -> raise too_few
  else if is c "W" then
    try
      let time = int_in "time" s ta tb in
      next c;
      let peer_ip = parsed "bad peer_ip " Ipv4.of_substring c in
      next c;
      let peer_as = parsed "bad peer_as " Asn.of_substring c in
      next c;
      let prefix = parsed "bad prefix " Prefix.of_substring c in
      Withdraw { time; peer_ip; peer_as; prefix }
    with Bad _ when not (has_fields s a b 6) -> raise too_few
  else raise too_few

let scan_line scan line =
  let n = String.length line in
  let a = trim_left line 0 n in
  let b = trim_right line a n in
  if a >= b || line.[a] = '#' then Skip
  else match scan line a b with v -> Parsed v | exception Bad msg -> Malformed msg

let record_of_line line = scan_line scan_record line

let update_of_line line = scan_line scan_update line

let parse_with of_line lines =
  let parsed = ref [] in
  let errors = ref [] in
  List.iteri
    (fun i line ->
      match of_line line with
      | Parsed v -> parsed := v :: !parsed
      | Skip -> ()
      | Malformed msg -> errors := (i + 1, msg) :: !errors)
    lines;
  (List.rev !parsed, List.rev !errors)

let parse_update_lines lines = parse_with update_of_line lines

let parse_lines lines = parse_with record_of_line lines

let read_channel ic =
  let rec loop acc =
    match In_channel.input_line ic with
    | Some line -> loop (line :: acc)
    | None -> List.rev acc
  in
  parse_lines (loop [])

let read_file path = In_channel.with_open_text path read_channel

let write_channel oc records =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.clear b;
      add_record b ~kind:"TABLE_DUMP2" ~subtype:"B" r;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
    records

let write_file path records =
  Out_channel.with_open_text path (fun oc -> write_channel oc records)
