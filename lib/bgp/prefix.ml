type t = { network : Ipv4.t; length : int }

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length"
  else { network = Ipv4.apply_mask len addr; length = len }

let network p = p.network

let length p = p.length

let of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i ->
      let addr_part = String.sub s 0 i in
      let len_part = String.sub s (i + 1) (String.length s - i - 1) in
      let len_ok =
        String.length len_part > 0
        && String.for_all (fun c -> c >= '0' && c <= '9') len_part
      in
      if not len_ok then None
      else
        let len = int_of_string len_part in
        if len > 32 then None
        else
          match Ipv4.of_string addr_part with
          | None -> None
          | Some addr -> Some (make addr len)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.length

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

let subsumes p q = p.length <= q.length && mem q.network p

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
