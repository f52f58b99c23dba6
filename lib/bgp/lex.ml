(* In-place lexing over a substring [s.[a..b-1]], and decimal writing
   into a [Buffer]: the pieces the text codecs ({!Mrt} and the
   [of_substring] parsers its fields reuse) share, so a field is read
   without copying it out and a line is written without building one
   string per column. *)

let not_digits = -1

let overflow = -2

let rec digits s i b acc =
  if i >= b then acc
  else
    match s.[i] with
    | '0' .. '9' as c ->
        if acc < 0 then digits s (i + 1) b acc
        else
          let d = Char.code c - Char.code '0' in
          digits s (i + 1) b
            (if acc > (max_int - d) / 10 then overflow else (acc * 10) + d)
    | _ -> not_digits

(* [uint s a b] reads [s.[a..b-1]] as an unsigned decimal.  It returns
   the value, [not_digits] when the range is empty or holds a non-digit,
   and [overflow] when it is all digits but exceeds [max_int] — exactly
   where [int_of_string] on a digit string fails.  A non-digit anywhere
   takes precedence over overflow, as a digits-only check before
   [int_of_string] reports it. *)
let uint s a b = if a >= b then not_digits else digits s a b 0

(* First index in [i..b-1] holding [c], or [b]. *)
let rec find c s i b = if i >= b || s.[i] = c then i else find c s (i + 1) b

(* First index in [i..b-1] not holding [c], or [b]. *)
let rec skip c s i b = if i < b && s.[i] = c then skip c s (i + 1) b else i

let rec same_chars s a lit k =
  k >= String.length lit || (s.[a + k] = lit.[k] && same_chars s a lit (k + 1))

(* Whether [s.[a..b-1]] is exactly [lit]. *)
let equals s a b lit = b - a = String.length lit && same_chars s a lit 0

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Digit by digit, most significant first; the text of [string_of_int]. *)
let add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n) else add_digits buf n

(* The text [add] appends for [x]: each field type's [to_string] is its
   buffer writer run into a fresh buffer, so a value reads the same on
   its own and inside a dump line. *)
let to_string add x =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf
