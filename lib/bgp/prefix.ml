type t = { network : Ipv4.t; length : int }

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length"
  else { network = Ipv4.apply_mask len addr; length = len }

let network p = p.network

let length p = p.length

(* The length is bounded before it is converted: an overlong run of
   digits is malformed, not an exception. *)
let of_substring s a b =
  let i = Lex.find '/' s a b in
  if i >= b then None
  else
    let len = Lex.uint s (i + 1) b in
    if len < 0 || len > 32 then None
    else
      match Ipv4.of_substring s a i with
      | None -> None
      | Some addr -> Some (make addr len)

let of_string s = of_substring s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let add_to_buffer b p =
  Ipv4.add_to_buffer b p.network;
  Buffer.add_char b '/';
  Lex.add_int b p.length

let to_string p = Lex.to_string add_to_buffer p

let pp ppf p = Format.pp_print_string ppf (to_string p)

let compare a b =
  let c = Ipv4.compare a.network b.network in
  if c <> 0 then c else Stdlib.compare a.length b.length

let equal a b = compare a b = 0

(* Hash tables index buckets by the low bits, and a /24 has eight zero
   low bits, so fold the high bits down before they are used. *)
let hash p =
  let x = (Ipv4.to_int p.network lsl 6) lor p.length in
  let x = (x lxor (x lsr 29)) * 0x2545F4914F6CDD1D in
  (x lxor (x lsr 32)) land max_int

let mem addr p = Ipv4.equal (Ipv4.apply_mask p.length addr) p.network

let default = { network = Ipv4.of_int 0; length = 0 }

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
