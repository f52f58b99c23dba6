type origin = Igp | Egp | Incomplete

let origin_to_string = function
  | Igp -> "IGP"
  | Egp -> "EGP"
  | Incomplete -> "INCOMPLETE"

let origin_of_substring s a b =
  if Lex.equals s a b "IGP" then Some Igp
  else if Lex.equals s a b "EGP" then Some Egp
  else if Lex.equals s a b "INCOMPLETE" then Some Incomplete
  else None

let origin_of_string s = origin_of_substring s 0 (String.length s)

type community = int * int

type t = {
  origin : origin;
  next_hop : Ipv4.t;
  local_pref : int;
  med : int;
  communities : community list;
}

let default ~next_hop =
  { origin = Igp; next_hop; local_pref = 100; med = 0; communities = [] }

let add_community b (asn, v) =
  Lex.add_int b asn;
  Buffer.add_char b ':';
  Lex.add_int b v

let community_to_string c = Lex.to_string add_community c

(* "asn:value", both decimal; the first colon splits, so a second one
   makes the value malformed. *)
let community_of_substring s a b =
  let i = Lex.find ':' s a b in
  if i >= b then None
  else
    let asn = Lex.uint s a i and v = Lex.uint s (i + 1) b in
    if asn < 0 || v < 0 then None else Some (asn, v)

let community_of_string s = community_of_substring s 0 (String.length s)

let rec add_communities b = function
  | [] -> ()
  | [ c ] -> add_community b c
  | c :: rest ->
      add_community b c;
      Buffer.add_char b ' ';
      add_communities b rest

let communities_to_string cs = Lex.to_string add_communities cs

let rec scan_communities s i b acc =
  let i = Lex.skip ' ' s i b in
  if i >= b then Some (List.rev acc)
  else
    let j = Lex.find ' ' s i b in
    match community_of_substring s i j with
    | Some c -> scan_communities s j b (c :: acc)
    | None -> None

let communities_of_substring s a b = scan_communities s a b []

let communities_of_string s = communities_of_substring s 0 (String.length s)

let pp ppf a =
  Format.fprintf ppf "origin=%s next_hop=%a lpref=%d med=%d communities=[%s]"
    (origin_to_string a.origin) Ipv4.pp a.next_hop a.local_pref a.med
    (communities_to_string a.communities)

let equal a b =
  a.origin = b.origin
  && Ipv4.equal a.next_hop b.next_hop
  && a.local_pref = b.local_pref
  && a.med = b.med
  && a.communities = b.communities
