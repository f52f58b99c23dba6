type record = {
  time : int;
  peer_ip : Ipv4.t;
  peer_as : Asn.t;
  prefix : Prefix.t;
  path : Aspath.t;
  attrs : Attrs.t;
}

type 'a line = Skip | Parsed of 'a | Malformed of string

(* ---------------- writing ---------------- *)

(* Every column goes straight into one buffer through its field type's
   [add_to_buffer], the writer that type's [to_string] runs. *)

let bar b = Buffer.add_char b '|'

let add_record b r =
  let a = r.attrs in
  Buffer.add_string b "TABLE_DUMP2|";
  Lex.add_int b r.time;
  Buffer.add_string b "|B|";
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

let record_to_line r =
  let b = Buffer.create 128 in
  add_record b r;
  Buffer.contents b

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
   fields".  A line short of twelve fields says so whatever else is
   wrong with it, so a scan that fails counts the fields before
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

let scan_record s a b =
  let c = cursor s a b in
  try
    if not (is c "TABLE_DUMP2" || is c "TABLE_DUMP") then
      bad "unknown record kind %S" (text c);
    (* The time column is read once the subtype is known. *)
    next c;
    let ta = c.start and tb = c.stop in
    next c;
    if not (is c "B") then bad "unsupported subtype %S (want B)" (text c);
    let time = int_in "time" s ta tb in
    next c;
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
  with Bad _ when not (has_fields s a b 12) -> raise too_few

let record_of_line line =
  let n = String.length line in
  let a = trim_left line 0 n in
  let b = trim_right line a n in
  if a >= b || line.[a] = '#' then Skip
  else
    match scan_record line a b with
    | r -> Parsed r
    | exception Bad msg -> Malformed msg

let parse_lines lines =
  let parsed = ref [] in
  let errors = ref [] in
  List.iteri
    (fun i line ->
      match record_of_line line with
      | Parsed r -> parsed := r :: !parsed
      | Skip -> ()
      | Malformed msg -> errors := (i + 1, msg) :: !errors)
    lines;
  (List.rev !parsed, List.rev !errors)

let write_channel oc records =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.clear b;
      add_record b r;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
    records

let write_file path records =
  Out_channel.with_open_text path (fun oc -> write_channel oc records)
