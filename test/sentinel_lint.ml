(* Source lint for the [no_route] and [no_import] sentinels.
   [Rattr.no_route] and [Rattr.no_import] are physical sentinels:
   structural comparison with either is always a bug ([=] on it reads
   absurd field values; worse, a structurally equal clone would satisfy
   it).  Scan the simulator sources and flag any token-level structural
   comparison.  This is a line lexer, not a parser: comments and string
   literals are masked first, then the tokens adjacent to each sentinel
   occurrence are inspected. *)

module Report = Analysis.Report

let mask_source src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 and depth = ref 0 and in_str = ref false in
  while !i < n do
    let c = src.[!i] in
    if !in_str then begin
      if c = '\\' && !i + 1 < n then begin
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        if c = '"' then in_str := false;
        blank !i;
        incr i
      end
    end
    else if !depth > 0 then begin
      if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        blank !i;
        blank (!i + 1);
        decr depth;
        i := !i + 2
      end
      else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        blank !i;
        blank (!i + 1);
        incr depth;
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      depth := 1;
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      in_str := true;
      incr i
    end
    else incr i
  done;
  Bytes.to_string out

let ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_space c = c = ' ' || c = '\t'

(* The token containing position [i..j), extended left over '.'-joined
   module paths, then the whitespace-separated tokens before and
   after. *)
let around line start stop =
  let n = String.length line in
  let ts = ref start in
  while !ts > 0 && not (is_space line.[!ts - 1]) do decr ts done;
  let te = ref stop in
  while !te < n && not (is_space line.[!te]) do incr te done;
  let prev =
    let e = ref !ts in
    while !e > 0 && is_space line.[!e - 1] do decr e done;
    let s = ref !e in
    while !s > 0 && not (is_space line.[!s - 1]) do decr s done;
    String.sub line !s (!e - !s)
  in
  let next =
    let s = ref !te in
    while !s < n && is_space line.[!s] do incr s done;
    let e = ref !s in
    while !e < n && not (is_space line.[!e]) do incr e done;
    String.sub line !s (!e - !s)
  in
  (prev, next)

let structural_ops = [ "="; "<>"; "compare"; "Stdlib.compare" ]

let sentinels = [ "no_route"; "no_import" ]

let scan_word file lineno line word =
  let n = String.length line in
  let wl = String.length word in
  let found = ref [] in
  let i = ref 0 in
  while !i + wl <= n do
    if
      String.sub line !i wl = word
      && (!i = 0 || not (ident_char line.[!i - 1]))
      && (!i + wl = n || not (ident_char line.[!i + wl]))
    then begin
      let prev, next = around line !i (!i + wl) in
      let flagged =
        (* [let no_route =] / [and no_route =] is a definition site *)
        if prev = "let" || prev = "and" then false
        else
          List.mem prev structural_ops
          || List.mem next [ "="; "<>" ]
          || next = "compare"
      in
      if flagged then
        found :=
          {
            Report.severity = Report.Error;
            rule = "sentinel-compare";
            location = Report.Network;
            message =
              Printf.sprintf
                "%s:%d: structural comparison with Rattr.%s (token \
                 context: %s ... %s)"
                file lineno word
                (if prev = "" then "<line start>" else prev)
                (if next = "" then "<line end>" else next);
            hint =
              "no_route and no_import are physical sentinels: test them \
               with == / != (or Rattr.is_route), never = / <> / compare";
          }
          :: !found;
      i := !i + wl
    end
    else incr i
  done;
  List.rev !found

let scan_line file lineno line =
  List.concat_map (scan_word file lineno line) sentinels

let scan_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception _ -> []
  | src ->
      String.split_on_char '\n' (mask_source src)
      |> List.mapi (fun i line ->
             scan_line (Filename.basename file) (i + 1) line)
      |> List.concat

(* Locate [lib/simulator] from the current directory: works from the
   repo root and from dune's sandboxed test directory
   (_build/default/test — dune copies the sources into _build). *)
let locate_simulator_sources () =
  let rec up dir n =
    if n > 6 then None
    else
      let cand = Filename.concat dir (Filename.concat "lib" "simulator") in
      if Sys.file_exists (Filename.concat cand "rattr.ml") then Some cand
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

(* Scan every [.ml] file of [root] (default: the simulator sources
   found from the current directory; none found scans nothing).  Rule
   [sentinel-compare]. *)
let sentinel_lint ?root () =
  match
    match root with Some r -> Some r | None -> locate_simulator_sources ()
  with
  | None -> []
  | Some dir -> (
      match Sys.readdir dir with
      | exception _ -> []
      | entries ->
          Array.sort compare entries;
          Array.to_list entries
          |> List.filter (fun f -> Filename.check_suffix f ".ml")
          |> List.concat_map (fun f -> scan_file (Filename.concat dir f)))
