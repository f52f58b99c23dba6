open Bgp

type request =
  | Path of { prefix : Prefix.t; asn : Asn.t }
  | Catchment of { egress : Asn.t; prefix : Prefix.t option }
  | Whatif of { a : Asn.t; b : Asn.t }
  | Ping
  | Reload
  | Shutdown

type whatif_change = { wc_prefix : Prefix.t; wc_changed : int; wc_lost : int }

type payload =
  | Paths of { prefix : Prefix.t; asn : Asn.t; paths : int array list }
  | Catchment_members of {
      egress : Asn.t;
      members : (Prefix.t * Asn.t list) list;
    }
  | Whatif_summary of {
      a : Asn.t;
      b : Asn.t;
      half_sessions : int;
      prefixes_affected : int;
      ases_affected : int;
      resume_hits : int;
      changes : whatif_change list;
    }
  | Pong of { prefixes : int; nodes : int }
  | Reloaded of { prefixes : int; resume_hits : int; build_s : float }
  | Closing

type response = {
  result : (payload, string) result;
  elapsed_us : int;
  deadline_missed : bool;
}

(* -- encoding -- *)

let prefix_json p = Json.String (Prefix.to_string p)

let request_to_json = function
  | Path { prefix; asn } ->
      Json.Obj
        [
          ("op", Json.String "path");
          ("prefix", prefix_json prefix);
          ("as", Json.Int asn);
        ]
  | Catchment { egress; prefix } ->
      Json.Obj
        (("op", Json.String "catchment")
        :: ("egress", Json.Int egress)
        ::
        (match prefix with
        | Some p -> [ ("prefix", prefix_json p) ]
        | None -> []))
  | Whatif { a; b } ->
      Json.Obj
        [ ("op", Json.String "whatif"); ("a", Json.Int a); ("b", Json.Int b) ]
  | Ping -> Json.Obj [ ("op", Json.String "ping") ]
  | Reload -> Json.Obj [ ("op", Json.String "reload") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let payload_to_json = function
  | Paths { prefix; asn; paths } ->
      Json.Obj
        [
          ("prefix", prefix_json prefix);
          ("as", Json.Int asn);
          ( "paths",
            Json.List
              (List.map
                 (fun path ->
                   Json.List
                     (Array.to_list (Array.map (fun n -> Json.Int n) path)))
                 paths) );
        ]
  | Catchment_members { egress; members } ->
      Json.Obj
        [
          ("egress", Json.Int egress);
          ( "catchment",
            Json.List
              (List.map
                 (fun (p, ases) ->
                   Json.Obj
                     [
                       ("prefix", prefix_json p);
                       ("ases", Json.List (List.map (fun a -> Json.Int a) ases));
                     ])
                 members) );
        ]
  | Whatif_summary
      { a; b; half_sessions; prefixes_affected; ases_affected; resume_hits;
        changes } ->
      Json.Obj
        [
          ("a", Json.Int a);
          ("b", Json.Int b);
          ("half_sessions", Json.Int half_sessions);
          ("prefixes_affected", Json.Int prefixes_affected);
          ("ases_affected", Json.Int ases_affected);
          ("resume_hits", Json.Int resume_hits);
          ( "changes",
            Json.List
              (List.map
                 (fun c ->
                   Json.Obj
                     [
                       ("prefix", prefix_json c.wc_prefix);
                       ("changed", Json.Int c.wc_changed);
                       ("lost", Json.Int c.wc_lost);
                     ])
                 changes) );
        ]
  | Pong { prefixes; nodes } ->
      Json.Obj
        [
          ("pong", Json.Bool true);
          ("prefixes", Json.Int prefixes);
          ("nodes", Json.Int nodes);
        ]
  | Reloaded { prefixes; resume_hits; build_s } ->
      Json.Obj
        [
          ("reloaded", Json.Bool true);
          ("prefixes", Json.Int prefixes);
          ("resume_hits", Json.Int resume_hits);
          ("build_s", Json.Float build_s);
        ]
  | Closing -> Json.Obj [ ("closing", Json.Bool true) ]

let response_to_json r =
  match r.result with
  | Ok payload ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("elapsed_us", Json.Int r.elapsed_us);
          ("deadline_missed", Json.Bool r.deadline_missed);
          ("result", payload_to_json payload);
        ]
  | Error msg ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("elapsed_us", Json.Int r.elapsed_us);
          ("deadline_missed", Json.Bool r.deadline_missed);
          ("error", Json.String msg);
        ]

(* -- decoding -- *)

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let prefix_of_json name json =
  let* s = field name Json.to_str json in
  match Prefix.of_string s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "bad prefix %S" s)

let request_of_json json =
  let* op = field "op" Json.to_str json in
  match op with
  | "path" ->
      let* prefix = prefix_of_json "prefix" json in
      let* asn = field "as" Json.to_int json in
      Ok (Path { prefix; asn })
  | "catchment" ->
      let* egress = field "egress" Json.to_int json in
      let* prefix =
        match Json.member "prefix" json with
        | None | Some Json.Null -> Ok None
        | Some _ -> Result.map Option.some (prefix_of_json "prefix" json)
      in
      Ok (Catchment { egress; prefix })
  | "whatif" ->
      let* a = field "a" Json.to_int json in
      let* b = field "b" Json.to_int json in
      Ok (Whatif { a; b })
  | "ping" -> Ok Ping
  | "reload" -> Ok Reload
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown op %S" other)

let request_of_string s =
  let* json = Json.of_string s in
  request_of_json json

let request_to_string r = Json.to_string (request_to_json r)

let response_to_string r = Json.to_string (response_to_json r)

(* -- framing: 4-byte big-endian length prefix, then the JSON bytes -- *)

let max_frame = 64 * 1024 * 1024

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int n);
  let buf = Bytes.cat header (Bytes.of_string payload) in
  let total = Bytes.length buf in
  let rec push off =
    if off < total then
      let written = Unix.write fd buf off (total - off) in
      push (off + written)
  in
  push 0

let read_exactly ?(off = 0) fd buf len =
  let rec pull off =
    if off >= len then true
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> false (* peer closed mid-frame *)
      | n -> pull (off + n)
  in
  pull off

(* The payload buffer starts at most [frame_chunk] long and doubles,
   capped at the claimed length, only when full: a header that claims a
   large length costs memory as its bytes arrive, not up front. *)
let frame_chunk = 64 * 1024

let read_payload fd n =
  let rec pull buf off =
    if off = n then Some (Bytes.unsafe_to_string buf)
    else
      let buf =
        if off < Bytes.length buf then buf
        else Bytes.extend buf 0 (min (n - off) off)
      in
      match Unix.read fd buf off (Bytes.length buf - off) with
      | 0 -> None (* peer closed mid-frame *)
      | got -> pull buf (off + got)
  in
  pull (Bytes.create (min n frame_chunk)) 0

let read_timeout_msg = "read timeout"

let read_frame ?(deadline_ms = 0) fd =
  let header = Bytes.create 4 in
  (* Waiting for a frame to {e start} is keep-alive idleness, not a
     stall: the first header read blocks without a deadline.  Once any
     frame byte has arrived, the socket receive timeout arms for the
     remainder, so a client stalling mid-frame cannot pin a connection
     thread forever. *)
  match Unix.read fd header 0 4 with
  | 0 -> Ok None (* clean close between frames *)
  | got -> (
      let finish () =
        if not (read_exactly ~off:got fd header 4) then Error "truncated frame"
        else
          let n = Int32.to_int (Bytes.get_int32_be header 0) in
          if n < 0 || n > max_frame then
            Error (Printf.sprintf "bad frame length %d" n)
          else
            match read_payload fd n with
            | None -> Error "truncated frame"
            | Some payload -> Ok (Some payload)
      in
      let run () =
        if deadline_ms <= 0 then finish ()
        else begin
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO
            (float_of_int deadline_ms /. 1000.);
          Fun.protect
            ~finally:(fun () ->
              try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.
              with Unix.Unix_error _ -> ())
            finish
        end
      in
      try run ()
      with
      | Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
      ->
        Error read_timeout_msg)
