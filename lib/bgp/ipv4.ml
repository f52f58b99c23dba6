type t = int

let max_value = 0xFFFFFFFF

let of_int n = n land max_value

let to_int a = a

let of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range"
  in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let octets a =
  ((a lsr 24) land 0xFF, (a lsr 16) land 0xFF, (a lsr 8) land 0xFF, a land 0xFF)

let add_to_buffer b a =
  Lex.add_int b (a lsr 24);
  Buffer.add_char b '.';
  Lex.add_int b ((a lsr 16) land 0xFF);
  Buffer.add_char b '.';
  Lex.add_int b ((a lsr 8) land 0xFF);
  Buffer.add_char b '.';
  Lex.add_int b (a land 0xFF)

let to_string a = Lex.to_string add_to_buffer a

let pp ppf a = Format.pp_print_string ppf (to_string a)

(* Hand-rolled parser: no allocation beyond the result, rejects anything
   that is not exactly four dot-separated decimal octets of one to three
   digits.  [scan_octets s b k acc i j o] reads octet [k] (started at [i],
   value [o] so far, next char at [j]) after [acc] holds the previous
   ones; -1 when malformed. *)
let rec scan_octets s b k acc i j o =
  if j < b && j - i < 3 && s.[j] >= '0' && s.[j] <= '9' then
    scan_octets s b k acc i (j + 1) ((o * 10) + Char.code s.[j] - Char.code '0')
  else if j = i || o > 255 then -1
  else
    let acc = (acc lsl 8) lor o in
    if k = 3 then if j = b then acc else -1
    else if j < b && s.[j] = '.' then scan_octets s b (k + 1) acc (j + 1) (j + 1) 0
    else -1

let of_substring s a b =
  let v = scan_octets s b 0 0 a a 0 in
  if v < 0 then None else Some v

let of_string s = of_substring s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let compare (a : int) (b : int) = Stdlib.compare a b

let equal (a : int) (b : int) = a = b

let mask_bits n =
  if n < 0 || n > 32 then invalid_arg "Ipv4.mask_bits"
  else if n = 0 then 0
  else max_value lxor ((1 lsl (32 - n)) - 1)

let apply_mask len a = a land mask_bits len
