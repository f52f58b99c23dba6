type t = int array

let of_list l = Array.of_list l

let to_list p = Array.to_list p

let of_array a = Array.copy a

let to_array p = Array.copy p

let empty = [||]

let is_empty p = Array.length p = 0

let length p = Array.length p

let origin p =
  let n = Array.length p in
  if n = 0 then None else Some p.(n - 1)

let head p = if Array.length p = 0 then None else Some p.(0)

let nth p i =
  if i < 0 || i >= Array.length p then invalid_arg "Aspath.nth" else p.(i)

let prepend a p =
  let n = Array.length p in
  let q = Array.make (n + 1) a in
  Array.blit p 0 q 1 n;
  q

let drop_head p =
  let n = Array.length p in
  if n = 0 then invalid_arg "Aspath.drop_head" else Array.sub p 1 (n - 1)

let suffix_from p i =
  let n = Array.length p in
  if i < 0 || i > n then invalid_arg "Aspath.suffix_from"
  else Array.sub p i (n - i)

let suffixes p =
  let n = Array.length p in
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (suffix_from p i :: acc) in
  loop (n - 1) []

let contains a p = Array.exists (fun x -> x = a) p

let rec prepended p i = i < Array.length p && (p.(i) = p.(i - 1) || prepended p (i + 1))

(* A path with nothing prepended comes back as itself: paths are
   immutable behind this interface, so sharing is safe and the common
   case copies nothing. *)
let remove_prepending p =
  let n = Array.length p in
  if not (prepended p 1) then p
  else begin
    let buf = Array.make n p.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if p.(i) <> p.(i - 1) then begin
        buf.(!k) <- p.(i);
        incr k
      end
    done;
    Array.sub buf 0 !k
  end

let rec occurs_before p a j = j >= 0 && (p.(j) = a || occurs_before p a (j - 1))

(* Paths are a handful of hops, so looking back over the earlier hops
   beats building a set.  A hop equal to its predecessor continues a
   prepending run; any other repeat of an earlier hop is a loop. *)
let rec loop_from p i =
  i < Array.length p
  && ((p.(i) <> p.(i - 1) && occurs_before p p.(i) (i - 2)) || loop_from p (i + 1))

let has_loop p = loop_from p 1

let equal (a : int array) b = a = b

let rec compare_from (a : int array) b i =
  if i >= Array.length a then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

(* [Stdlib.compare]'s order on int arrays (shorter first, then hop by
   hop), without the polymorphic call: dumps, model files and sets are
   sorted by it. *)
let compare (a : int array) b =
  let n = Array.length a and m = Array.length b in
  if n <> m then Int.compare n m else compare_from a b 0

let hash p = Hashtbl.hash p

(* Runs of spaces separate tokens.  The first pass checks every token
   and counts them, -1 at the first malformed one; the second fills the
   one array the path needs. *)
let rec count_tokens s i b n =
  let i = Lex.skip ' ' s i b in
  if i >= b then n
  else
    let j = Lex.find ' ' s i b in
    if Lex.uint s i j < 1 then -1 else count_tokens s j b (n + 1)

let of_substring s a b =
  let n = count_tokens s a b 0 in
  if n < 0 then None
  else if n = 0 then Some empty
  else begin
    let p = Array.make n 0 in
    let i = ref a in
    for k = 0 to n - 1 do
      let start = Lex.skip ' ' s !i b in
      let stop = Lex.find ' ' s start b in
      p.(k) <- Lex.uint s start stop;
      i := stop
    done;
    Some p
  end

let of_string s = of_substring s 0 (String.length s)

let add_to_buffer b p =
  for i = 0 to Array.length p - 1 do
    if i > 0 then Buffer.add_char b ' ';
    Lex.add_int b p.(i)
  done

let to_string p = Lex.to_string add_to_buffer p

let pp ppf p =
  Format.pp_print_string ppf
    (String.concat "-" (List.map string_of_int (Array.to_list p)))

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
