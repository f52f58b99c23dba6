type t = int

let pp ppf a = Format.fprintf ppf "AS%d" a

let compare (a : int) (b : int) = Stdlib.compare a b

let equal (a : int) (b : int) = a = b

let of_substring s a b =
  let n = Lex.uint s a b in
  if n >= 1 then Some n else None

let of_string s = of_substring s 0 (String.length s)

let to_string = string_of_int

let max_prefixes = 16

(* Synthetic origin prefixes live under 10.0.0.0/8 .. 25.0.0.0/8: the
   i-th prefix of AS n is (10+i).(n lsr 8).(n land 0xFF).0/24.  This
   keeps prefixes readable in dumps and trivially invertible. *)
let nth_prefix asn i =
  if asn < 1 || asn > 0xFFFF then invalid_arg "Asn.nth_prefix: asn"
  else if i < 0 || i >= max_prefixes then invalid_arg "Asn.nth_prefix: index"
  else
    Prefix.make
      (Ipv4.of_octets (10 + i) ((asn lsr 8) land 0xFF) (asn land 0xFF) 0)
      24

let origin_prefix asn = nth_prefix asn 0

let of_origin_prefix p =
  if Prefix.length p <> 24 then None
  else
    let o1, o2, o3, _ = Ipv4.octets (Prefix.network p) in
    if o1 < 10 || o1 >= 10 + max_prefixes then None
    else
      let asn = (o2 lsl 8) lor o3 in
      if asn >= 1 then Some asn else None

let router_ip asn idx =
  if asn < 1 || asn > 0xFFFF then invalid_arg "Asn.router_ip: asn out of range"
  else if idx < 0 || idx > 0xFFFF then invalid_arg "Asn.router_ip: idx out of range"
  else Ipv4.of_int ((asn lsl 16) lor idx)

let of_router_ip ip =
  let v = Ipv4.to_int ip in
  ((v lsr 16) land 0xFFFF, v land 0xFFFF)

module Set = Set.Make (Int)
module Map = Map.Make (Int)
