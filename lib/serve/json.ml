type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing -- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.bprintf b "%.1f" f
      else Printf.bprintf b "%.17g" f
  | String s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* -- parsing: plain recursive descent over a string cursor -- *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then (
    c.pos <- c.pos + n;
    value)
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' ->
        advance c;
        Buffer.contents b
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.src then
                  fail c "truncated \\u escape";
                let hex = String.sub c.src c.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail c "bad \\u escape"
                in
                c.pos <- c.pos + 4;
                (* Only ASCII escapes are produced by this codebase;
                   anything above is replaced, not decoded to UTF-8. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?'
            | _ -> fail c "bad escape");
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
      (* A number that overflows a float would print back as [inf],
         which is not JSON. *)
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> fail c (Printf.sprintf "number out of range %S" s)
      | None -> fail c (Printf.sprintf "bad number %S" s))

(* Protocol messages nest at most 4 deep; the bound stops a frame of
   open brackets from costing memory and stack in proportion to its
   length. *)
let max_depth = 64

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth -> fail c "nesting too deep"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then (
        advance c;
        Obj [])
      else
        let rec fields acc =
          skip_ws c;
          expect c '"';
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev ((key, v) :: acc))
          | _ -> fail c "expected ',' or '}'"
        in
        fields []
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then (
        advance c;
        List [])
      else
        let rec items acc =
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | _ -> fail c "expected ',' or ']'"
        in
        items []
  | Some '"' ->
      advance c;
      String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  try
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  with
  | Bad msg -> Error msg
  | Failure msg -> Error msg

(* -- accessors -- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
