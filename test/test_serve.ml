(* Tests for the query service: JSON codec, wire protocol, frozen
   snapshots, the query evaluator and the socket server. *)

open Bgp
module Net = Simulator.Net
module Qrmodel = Asmodel.Qrmodel
module Json = Serve.Json
module Protocol = Serve.Protocol
module Snapshot = Serve.Snapshot
module Query = Serve.Query
module Server = Serve.Server
module Ownership = Analysis.Ownership
module Runtime = Simulator.Runtime
module Warm = Simulator.Warm

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

(* -- JSON ------------------------------------------------------------- *)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("neg", Json.Int (-7));
        ("f", Json.Float 1.5);
        ("s", Json.String "a \"quoted\"\nline");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' ->
      check_bool "round trip" true (v = v');
      check_bool "member" true (Json.member "i" v' = Some (Json.Int 42));
      check_bool "to_int" true (Json.to_int (Json.Int 42) = Some 42);
      check_bool "to_str" true
        (Option.bind (Json.member "s" v') Json.to_str
        = Some "a \"quoted\"\nline")

let json_rejects_garbage () =
  List.iter
    (fun s ->
      let label = if String.length s > 40 then String.sub s 0 40 else s in
      check_bool label true (Result.is_error (Json.of_string s)))
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
      (* Beyond the float range: would print back as inf / -inf. *)
      String.make 401 '1'; "-1e400";
      (* A hostile frame of brackets. *)
      String.make 1_000_000 '[' ^ String.make 1_000_000 ']';
    ]

(* Values nest at most 6 deep (the parser refuses past 64); floats are
   finite, since inf and nan have no JSON spelling; strings hold any
   byte. *)
let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        map
          (fun f -> Json.Float (if Float.is_finite f then f else 0.5))
          float;
        map (fun s -> Json.String s) (string_size (int_bound 8));
      ]
  in
  sized_size (int_bound 6)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (depth - 1))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (depth - 1)))) );
             ])

let arb_json = QCheck.make ~print:Json.to_string gen_json

(* Printing is a fixed point of parse-then-print.  Values need not come
   back equal: [Float 1e15] prints as an integer and parses as [Int]. *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse round trip" ~count:500 arb_json
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' -> Json.to_string v' = s
      | Error e -> QCheck.Test.fail_reportf "%s does not parse: %s" s e)

(* A damaged frame is a parse result, never an exception. *)
let prop_json_damage_total =
  QCheck.Test.make ~name:"json parse of damaged text is total" ~count:500
    (QCheck.triple arb_json QCheck.small_nat QCheck.(int_bound 255))
    (fun (v, at, byte) ->
      let s = Json.to_string v in
      let n = String.length s in
      let flipped =
        String.mapi
          (fun i c -> if i = at mod n then Char.chr (Char.code c lxor byte) else c)
          s
      in
      List.for_all
        (fun text ->
          match Json.of_string text with Ok _ | Error _ -> true)
        [ String.sub s 0 (at mod (n + 1)); flipped ])

(* -- protocol --------------------------------------------------------- *)

let request_roundtrip () =
  let reqs =
    [
      Protocol.Path { prefix = Asn.origin_prefix 3; asn = 5 };
      Protocol.Catchment { egress = 1; prefix = Some (Asn.origin_prefix 2) };
      Protocol.Catchment { egress = 4; prefix = None };
      Protocol.Whatif { a = 4; b = 5 };
      Protocol.Ping;
      Protocol.Reload;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok req' -> check_bool "request round trip" true (req = req'))
    reqs;
  check_bool "unknown op rejected" true
    (Result.is_error (Protocol.request_of_string {|{"op":"frobnicate"}|}));
  check_bool "bad prefix rejected" true
    (Result.is_error
       (Protocol.request_of_string {|{"op":"path","prefix":"x","as":5}|}))

let framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Protocol.write_frame a "hello";
  Protocol.write_frame a "";
  check_bool "first frame" true (Protocol.read_frame b = Ok (Some "hello"));
  check_bool "empty frame" true (Protocol.read_frame b = Ok (Some ""));
  Unix.close a;
  check_bool "clean EOF" true (Protocol.read_frame b = Ok None);
  Unix.close b;
  (* A truncated frame is an error, not an EOF. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "short" 0 5);
  Unix.close a;
  check_bool "truncated frame" true (Result.is_error (Protocol.read_frame b));
  Unix.close b

(* A header claiming the largest legal frame, followed by ten bytes and
   a close: the reader reports truncation having allocated for the
   bytes received, not the 64 MiB claimed.  A real large frame still
   arrives whole. *)
let oversized_header_bounded () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (64 * 1024 * 1024));
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "0123456789" 0 10);
  Unix.close a;
  let r, words = Obs.Metrics.allocated_words (fun () -> Protocol.read_frame b) in
  let allocated_bytes = words * (Sys.word_size / 8) in
  Unix.close b;
  check_bool "truncated frame" true (r = Error "truncated frame");
  check_bool
    (Printf.sprintf "allocated %d bytes, under 1 MiB" allocated_bytes)
    true
    (allocated_bytes < 1024 * 1024);
  (* A genuine frame past the first buffer grows it and arrives whole. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.init 300_001 (fun i -> Char.chr (i mod 251)) in
  let writer = Thread.create (fun () -> Protocol.write_frame a big) () in
  check_bool "large frame intact" true (Protocol.read_frame b = Ok (Some big));
  Thread.join writer;
  Unix.close a;
  Unix.close b

let read_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A complete frame is unaffected by the deadline. *)
  Protocol.write_frame a "hello";
  check_bool "whole frame passes" true
    (Protocol.read_frame ~deadline_ms:200 b = Ok (Some "hello"));
  (* A peer stalling mid-frame times out with the dedicated error
     instead of pinning the reader. *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "stall" 0 5);
  let t0 = Unix.gettimeofday () in
  (match Protocol.read_frame ~deadline_ms:100 b with
  | Error msg ->
      check_bool "timeout error message" true (msg = Protocol.read_timeout_msg)
  | Ok _ -> Alcotest.fail "mid-frame stall should time out");
  check_bool "timed out promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  Unix.close a;
  Unix.close b

(* -- snapshot + queries ----------------------------------------------- *)

let build_snapshot () = Snapshot.build (Qrmodel.initial graph)

(* Run [f] under the ambient runtime as changed by [update], restoring
   it afterwards. *)
let with_runtime update f =
  let prior = Runtime.current () in
  Runtime.set (update prior);
  Fun.protect ~finally:(fun () -> Runtime.set prior) f

let with_warm warm f = with_runtime (fun rt -> { rt with Runtime.warm }) f

let snapshot_queries () =
  let snap = build_snapshot () in
  check_bool "converged" true (Snapshot.converged snap);
  check_int "all prefixes cached" 5 (List.length (Snapshot.states snap));
  (match Query.eval snap Protocol.Ping with
  | Ok (Protocol.Pong { prefixes; nodes }) ->
      check_int "pong prefixes" 5 prefixes;
      check_int "pong nodes" 5 nodes
  | _ -> Alcotest.fail "ping failed");
  (* Path answers come from the cached state, and match a fresh
     simulation. *)
  let p3 = Asn.origin_prefix 3 in
  (match Query.eval snap (Protocol.Path { prefix = p3; asn = 5 }) with
  | Ok (Protocol.Paths { paths; _ }) ->
      let m = Snapshot.model snap in
      let fresh = Qrmodel.simulate m p3 in
      check_bool "paths match fresh simulation" true
        (paths = Simulator.Engine.selected_paths m.Qrmodel.net fresh 5)
  | _ -> Alcotest.fail "path query failed");
  check_bool "unknown prefix is an error" true
    (Result.is_error
       (Query.eval snap
          (Protocol.Path
             { prefix = Prefix.of_string_exn "99.0.0.0/8"; asn = 5 })));
  (* Catchment: AS 5 reaches 3 via 4, so 5 is in 4's catchment for p3. *)
  match Query.eval snap (Protocol.Catchment { egress = 4; prefix = Some p3 }) with
  | Ok (Protocol.Catchment_members { members = [ (p, ases) ]; _ }) ->
      check_bool "prefix echoed" true (p = p3);
      check_bool "AS 5 transits 4" true (List.mem 5 ases);
      check_bool "egress not a member" false (List.mem 4 ases)
  | _ -> Alcotest.fail "catchment query failed"

let whatif_query_restores () =
  (* Pinned warm: the resume assertion must hold under RD_WARM=off. *)
  with_warm Runtime.Warm_mode.On @@ fun () ->
  let snap = build_snapshot () in
  let m = Snapshot.model snap in
  let denies0, _ = Net.count_policies m.Qrmodel.net in
  let run () =
    match Query.eval snap (Protocol.Whatif { a = 4; b = 5 }) with
    | Ok (Protocol.Whatif_summary _ as payload) -> payload
    | Ok _ -> Alcotest.fail "unexpected payload"
    | Error e -> Alcotest.failf "whatif failed: %s" e
  in
  let p1 = run () in
  (match p1 with
  | Protocol.Whatif_summary { half_sessions; prefixes_affected; resume_hits; _ }
    ->
      check_int "two half-sessions" 2 half_sessions;
      check_bool "something changed" true (prefixes_affected > 0);
      check_bool "deltas resumed warm" true (resume_hits > 0)
  | _ -> ());
  (* The net is restored exactly: no leftover denies, no touched node
     left to replay, and re-simulating the live net reproduces the
     cached states. *)
  let net = m.Qrmodel.net in
  let denies1, _ = Net.count_policies net in
  check_int "denies restored" denies0 denies1;
  List.iter
    (fun (p, _) ->
      check_bool
        (Format.asprintf "%a untouched" Prefix.pp p)
        true
        (Net.touched_nodes net p = []))
    (Snapshot.states snap);
  let rebuilt, _ = Snapshot.exclusive snap (fun () -> Snapshot.rebuild snap) in
  List.iter2
    (fun (p, cached) (p', st) ->
      check_bool
        (Format.asprintf "%a rebuilds to the cached state" Prefix.pp p)
        true
        (Prefix.equal p p' && Simulator.Engine.same_state cached st))
    (Snapshot.states snap) (Snapshot.states rebuilt);
  (* Repeatable: the second run sees the same world. *)
  let p2 = run () in
  check_bool "second run identical" true (p1 = p2);
  (* An unknown link is a zero-impact summary, not an error. *)
  match Query.eval snap (Protocol.Whatif { a = 2; b = 5 }) with
  | Ok (Protocol.Whatif_summary { half_sessions = 0; prefixes_affected = 0; _ })
    ->
      ()
  | _ -> Alcotest.fail "unknown link should be a zero summary"

(* -- wire server ------------------------------------------------------ *)

let with_server f =
  let path = Filename.temp_file "serve_test" ".sock" in
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let srv = Server.start ~deadline_ms:0 ~store (Server.Unix_path path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      (try Sys.remove path with Sys_error _ -> ());
      match Snapshot.current store with
      | Some snap -> Snapshot.retire snap
      | None -> ())
    (fun () -> f path)

let server_loopback () =
  with_server (fun path ->
      let conn =
        match Server.connect (Server.Unix_path path) with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect failed: %s" e
      in
      let ask req =
        match Server.request conn req with
        | Ok json -> json
        | Error e -> Alcotest.failf "request failed: %s" e
      in
      let pong = ask Protocol.Ping in
      check_bool "ok" true (Json.member "ok" pong = Some (Json.Bool true));
      check_bool "prefixes" true
        (Option.bind (Json.member "result" pong) (fun r ->
             Option.bind (Json.member "prefixes" r) Json.to_int)
        = Some 5);
      let paths =
        ask (Protocol.Path { prefix = Asn.origin_prefix 3; asn = 5 })
      in
      check_bool "path ok" true
        (Json.member "ok" paths = Some (Json.Bool true));
      (* AS 5 reaches 3 via 4: the selected path is [5;4;3]. *)
      (match
         Option.bind (Json.member "result" paths) (fun r ->
             Option.bind (Json.member "paths" r) Json.to_list)
       with
      | Some [ Json.List hops ] ->
          check_bool "hops" true
            (List.filter_map Json.to_int hops = [ 5; 4; 3 ])
      | _ -> Alcotest.fail "unexpected paths shape");
      Server.close_conn conn)

let server_shutdown_stops () =
  let path = Filename.temp_file "serve_test" ".sock" in
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let srv = Server.start ~deadline_ms:0 ~store (Server.Unix_path path) in
  let conn = Result.get_ok (Server.connect (Server.Unix_path path)) in
  (match Server.request conn Protocol.Shutdown with
  | Ok json ->
      check_bool "closing acknowledged" true
        (Json.member "ok" json = Some (Json.Bool true))
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  Server.close_conn conn;
  (* wait returns: the accept loop observed the shutdown. *)
  Server.wait srv;
  check_bool "socket unlinked" false (Sys.file_exists path);
  (match Snapshot.current store with
  | Some snap -> Snapshot.retire snap
  | None -> ());
  try Sys.remove path with Sys_error _ -> ()

(* The server keeps a count of open connections, not their threads:
   after many short-lived connections the gauge is back at 0, and stop
   then wait still returns once every handler has exited. *)
let server_forgets_closed_connections () =
  let path = Filename.temp_file "serve_test" ".sock" in
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let srv = Server.start ~deadline_ms:0 ~store (Server.Unix_path path) in
  let open_conns () =
    match Obs.Metrics.value "serve.open_connections" with
    | Some (Obs.Metrics.Gauge n) -> n
    | _ -> Alcotest.fail "serve.open_connections gauge missing"
  in
  for _ = 1 to 50 do
    let conn = Result.get_ok (Server.connect (Server.Unix_path path)) in
    (match Server.request conn Protocol.Ping with
    | Ok json ->
        check_bool "pong" true (Json.member "ok" json = Some (Json.Bool true))
    | Error e -> Alcotest.failf "ping failed: %s" e);
    Server.close_conn conn
  done;
  (* Each handler exits once it reads the client's EOF; give the last
     ones a bounded moment to get there. *)
  let rec settle tries =
    if open_conns () > 0 && tries > 0 then begin
      Thread.delay 0.01;
      settle (tries - 1)
    end
  in
  settle 500;
  check_int "no connection left open" 0 (open_conns ());
  Server.stop srv;
  Server.wait srv;
  check_int "still 0 after wait" 0 (open_conns ());
  (match Snapshot.current store with
  | Some snap -> Snapshot.retire snap
  | None -> ());
  try Sys.remove path with Sys_error _ -> ()

(* -- churn: rebuild-and-swap ------------------------------------------ *)

let reload_swaps_snapshot () =
  with_warm Runtime.Warm_mode.On @@ fun () ->
  let store = Snapshot.store () in
  check_bool "no snapshot yet" true
    (Result.is_error (Serve.Churn.reload store));
  let snap0 = build_snapshot () in
  Snapshot.publish store snap0;
  (match Serve.Churn.reload store with
  | Ok (Protocol.Reloaded { prefixes; resume_hits; _ }) ->
      check_int "all prefixes rebuilt" 5 prefixes;
      check_bool "rebuild resumed warm" true (resume_hits > 0)
  | Ok _ -> Alcotest.fail "unexpected payload"
  | Error e -> Alcotest.failf "reload failed: %s" e);
  let snap1 =
    match Snapshot.current store with
    | Some s -> s
    | None -> Alcotest.fail "store empty after reload"
  in
  check_bool "a fresh snapshot was published" true (not (snap1 == snap0));
  (* The old snapshot is retired; the new one answers identically. *)
  check_bool "old snapshot retired" true
    (match Snapshot.exclusive snap0 (fun () -> ()) with
    | exception Snapshot.Retired -> true
    | () -> false);
  (match Query.eval snap1 Protocol.Ping with
  | Ok (Protocol.Pong { prefixes = 5; _ }) -> ()
  | _ -> Alcotest.fail "new snapshot does not answer");
  check_bool "reload via bare Query.eval refused" true
    (Result.is_error (Query.eval snap1 Protocol.Reload));
  Snapshot.retire snap1

let churn_apply_publishes () =
  let store = Snapshot.store () in
  let snap0 = build_snapshot () in
  Snapshot.publish store snap0;
  let p3 = Asn.origin_prefix 3 in
  let baseline =
    match Query.eval snap0 (Protocol.Path { prefix = p3; asn = 5 }) with
    | Ok (Protocol.Paths { paths; _ }) -> paths
    | _ -> Alcotest.fail "baseline path query failed"
  in
  (* A paired stream (down then up) ends back at the baseline, but must
     go through a real mid-stream disruption. *)
  let events =
    [
      Stream.Event.make ~ts_ms:0 (Stream.Event.Session_down { a = 4; b = 5 });
      Stream.Event.make ~ts_ms:10 (Stream.Event.Session_up { a = 4; b = 5 });
    ]
  in
  (match Serve.Churn.apply store events with
  | Ok report ->
      check_int "both events applied" 2 report.Stream.Replay.events;
      check_int "no quarantine" 0
        (List.length report.Stream.Replay.quarantine)
  | Error e -> Alcotest.failf "churn apply failed: %s" e);
  let snap1 = Option.get (Snapshot.current store) in
  check_bool "swap happened" true (not (snap1 == snap0));
  (match Query.eval snap1 (Protocol.Path { prefix = p3; asn = 5 }) with
  | Ok (Protocol.Paths { paths; _ }) ->
      check_bool "post-churn snapshot matches baseline" true (paths = baseline)
  | _ -> Alcotest.fail "post-churn path query failed");
  (* The write path hashes no state, so the whole-state check is here:
     every prefix ends where it started. *)
  let fingerprints snap =
    List.map
      (fun (p, st) -> (p, Simulator.Engine.state_fingerprint st))
      (Snapshot.states snap)
  in
  let fp0 = fingerprints snap0 in
  check_int "same prefixes" (List.length fp0)
    (List.length (Snapshot.states snap1));
  List.iter
    (fun (p, fp) ->
      check_bool
        (Format.asprintf "%a restored" Prefix.pp p)
        true
        (List.assoc_opt p fp0 = Some fp))
    (fingerprints snap1);
  Snapshot.retire snap1

(* A client that hangs up before reading its response must cost only
   that connection: SIGPIPE is ignored in Server.start, so the write
   fails with EPIPE and the server keeps answering (without it the
   signal killed the whole process — a per-connection exception handler
   cannot catch a signal). *)
let client_disconnect_keeps_serving () =
  with_server (fun path ->
      for _ = 1 to 5 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        (* A what-if is slow enough that the server is usually still
           computing when the peer vanishes, so the response write hits
           a closed socket. *)
        Protocol.write_frame fd
          (Protocol.request_to_string (Protocol.Whatif { a = 4; b = 5 }));
        Unix.close fd
      done;
      Thread.delay 0.05;
      let conn = Result.get_ok (Server.connect (Server.Unix_path path)) in
      (match Server.request conn Protocol.Ping with
      | Ok json ->
          check_bool "still serving" true
            (Json.member "ok" json = Some (Json.Bool true))
      | Error e -> Alcotest.failf "server died after disconnects: %s" e);
      Server.close_conn conn)

(* A prefix whose length overflows an int is a bad request like any
   other: an error frame comes back and the same connection keeps
   serving (before, the parser's exception reached the connection's
   catch-all, which hung up without an answer). *)
let overlong_prefix_answered () =
  with_server (fun path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let ask payload =
            Protocol.write_frame fd payload;
            match Protocol.read_frame fd with
            | Ok (Some reply) -> Result.get_ok (Json.of_string reply)
            | Ok None -> Alcotest.fail "connection closed"
            | Error e -> Alcotest.failf "read failed: %s" e
          in
          let bad =
            ask {|{"op":"path","prefix":"10.0.3.0/99999999999999999999999","as":5}|}
          in
          check_bool "error response" true
            (Json.member "ok" bad = Some (Json.Bool false));
          check_bool "names the prefix" true
            (Json.member "error" bad
            = Some (Json.String "bad prefix \"10.0.3.0/99999999999999999999999\""));
          let ping = ask (Protocol.request_to_string Protocol.Ping) in
          check_bool "connection still serves" true
            (Json.member "ok" ping = Some (Json.Bool true))))

(* Ping counts the prefixes the snapshot serves, as a reload of it
   does, not the model's: a churn announcement adds one. *)
let ping_counts_served_prefixes () =
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  (match
     Serve.Churn.apply store
       [
         Stream.Event.make ~ts_ms:0
           (Stream.Event.Announce
              { prefix = Prefix.of_string_exn "99.0.0.0/8"; origin = 3 });
       ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "churn apply failed: %s" e);
  let pinged =
    match Query.eval (Option.get (Snapshot.current store)) Protocol.Ping with
    | Ok (Protocol.Pong { prefixes; _ }) -> prefixes
    | _ -> Alcotest.fail "ping failed"
  in
  check_int "ping counts the announced prefix" 6 pinged;
  (match Serve.Churn.reload store with
  | Ok (Protocol.Reloaded { prefixes; _ }) ->
      check_int "ping = reload" prefixes pinged
  | _ -> Alcotest.fail "reload failed");
  Option.iter Snapshot.retire (Snapshot.current store)

(* Paired events split across Churn.apply calls must still match up:
   each apply resumes the replay driver from the snapshot's persisted
   state (before the fix the up/end half was a silent no-op, leaving
   the link down and the hijack in force forever). *)
let churn_pairs_across_applies () =
  let store = Snapshot.store () in
  let snap0 = build_snapshot () in
  let net = (Snapshot.model snap0).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  Snapshot.publish store snap0;
  let p3 = Asn.origin_prefix 3 in
  let path_now () =
    match
      Query.eval
        (Option.get (Snapshot.current store))
        (Protocol.Path { prefix = p3; asn = 5 })
    with
    | Ok (Protocol.Paths { paths; _ }) -> paths
    | _ -> Alcotest.fail "path query failed"
  in
  let baseline = path_now () in
  let apply_one ev =
    match Serve.Churn.apply store [ Stream.Event.make ~ts_ms:0 ev ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "apply failed: %s" e
  in
  (* Link down in one call... *)
  apply_one (Stream.Event.Session_down { a = 4; b = 5 });
  check_bool "denies placed" true (fst (Net.count_policies net) > denies0);
  check_bool "rerouted while down" true (path_now () <> baseline);
  (* ...restored by a separate call. *)
  apply_one (Stream.Event.Session_up { a = 4; b = 5 });
  check_int "denies removed by the later apply" denies0
    (fst (Net.count_policies net));
  check_bool "baseline restored" true (path_now () = baseline);
  (* Same for a MOAS hijack started and ended in different calls. *)
  apply_one (Stream.Event.Hijack { prefix = p3; attacker = 5 });
  check_bool "hijack shifted routes" true (path_now () <> baseline);
  apply_one (Stream.Event.Hijack_end { prefix = p3; attacker = 5 });
  check_bool "hijack ended across applies" true (path_now () = baseline);
  match Snapshot.current store with
  | Some s -> Snapshot.retire s
  | None -> ()

(* What-if queries keep working after churn changed the served prefix
   set: the diff joins by prefix and the simulation covers the
   snapshot's own prefixes (the old positional diff raised once a
   hijack added one, poisoning every later what-if). *)
let whatif_after_churn_hijack () =
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let p3 = Asn.origin_prefix 3 in
  let sub = Prefix.make (Prefix.network p3) (Prefix.length p3 + 1) in
  (match
     Serve.Churn.apply store
       [
         Stream.Event.make ~ts_ms:0
           (Stream.Event.Hijack { prefix = sub; attacker = 5 });
       ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hijack apply failed: %s" e);
  let snap = Option.get (Snapshot.current store) in
  check_int "hijacked prefix tracked" 6 (List.length (Snapshot.states snap));
  let net = (Snapshot.model snap).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  let run () =
    match Query.eval snap (Protocol.Whatif { a = 4; b = 5 }) with
    | Ok (Protocol.Whatif_summary _ as p) -> p
    | Ok _ -> Alcotest.fail "unexpected payload"
    | Error e -> Alcotest.failf "whatif after churn failed: %s" e
  in
  let r1 = run () in
  check_int "net restored exactly" denies0 (fst (Net.count_policies net));
  let r2 = run () in
  check_bool "repeatable" true (r1 = r2);
  Snapshot.retire snap

(* Concurrent writers serialize on the store: the later one builds on
   the earlier one's published snapshot, so neither's effect is
   silently discarded (before the fix the second publish overwrote the
   first's applied events while both returned Ok). *)
let concurrent_apply_reload () =
  let store = Snapshot.store () in
  let snap0 = build_snapshot () in
  let net = (Snapshot.model snap0).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  Snapshot.publish store snap0;
  let apply_r = ref (Error "unset") and reload_r = ref (Error "unset") in
  let ta =
    Thread.create
      (fun () ->
        apply_r :=
          Result.map ignore
            (Serve.Churn.apply store
               [
                 Stream.Event.make ~ts_ms:0
                   (Stream.Event.Session_down { a = 4; b = 5 });
               ]))
      ()
  in
  let tb =
    Thread.create
      (fun () -> reload_r := Result.map ignore (Serve.Churn.reload store))
      ()
  in
  Thread.join ta;
  Thread.join tb;
  (match !apply_r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply lost the race: %s" e);
  (match !reload_r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reload lost the race: %s" e);
  (* The applied down survived both publishes... *)
  check_bool "down still in force" true (fst (Net.count_policies net) > denies0);
  (* ...and is still matchable by its up. *)
  (match
     Serve.Churn.apply store
       [ Stream.Event.make ~ts_ms:10 (Stream.Event.Session_up { a = 4; b = 5 }) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  check_int "clean restore" denies0 (fst (Net.count_policies net));
  match Snapshot.current store with
  | Some s -> Snapshot.retire s
  | None -> ()

(* The acceptance lock: queries keep succeeding while churn swaps the
   snapshot underneath them — zero dropped connections, zero errors. *)
let queries_across_reload () =
  with_server (fun path ->
      let errors = Atomic.make 0 in
      let queries = Atomic.make 0 in
      let worker _ () =
        match Server.connect (Server.Unix_path path) with
        | Error _ -> Atomic.incr errors
        | Ok conn ->
            for i = 0 to 39 do
              let req =
                match i mod 3 with
                | 0 -> Protocol.Ping
                | 1 -> Protocol.Path { prefix = Asn.origin_prefix 3; asn = 5 }
                | _ -> Protocol.Whatif { a = 4; b = 5 }
              in
              (match Server.request conn req with
              | Ok json
                when Json.member "ok" json = Some (Json.Bool true) ->
                  Atomic.incr queries
              | Ok _ | Error _ -> Atomic.incr errors);
              Thread.yield ()
            done;
            Server.close_conn conn
      in
      let threads = List.init 3 (fun i -> Thread.create (worker i) ()) in
      (* Meanwhile: repeated churn-triggered rebuild-and-swaps. *)
      let reloader = Result.get_ok (Server.connect (Server.Unix_path path)) in
      for _ = 1 to 5 do
        (match Server.request reloader Protocol.Reload with
        | Ok json when Json.member "ok" json = Some (Json.Bool true) -> ()
        | Ok json -> Alcotest.failf "reload refused: %s" (Json.to_string json)
        | Error e -> Alcotest.failf "reload failed: %s" e);
        Thread.delay 0.01
      done;
      Server.close_conn reloader;
      List.iter Thread.join threads;
      check_int "zero dropped or failed queries" 0 (Atomic.get errors);
      check_int "every query answered" 120 (Atomic.get queries))

(* A write on a snapshot that a reload is retiring must not overlap a
   write on its successor: both wrap one net.  Each round holds the old
   snapshot's write section open while a reload and then a what-if on
   the old snapshot line up behind it, and a third thread waits to run
   a what-if on the successor; then it lets them go.  The old what-if
   is refused or answers as a sequential run would, the successor's
   always does, and the net keeps its deny set. *)
let whatif_across_reload_serialized () =
  with_runtime (fun rt -> { rt with Runtime.jobs = Some 4 }) @@ fun () ->
  let store = Snapshot.store () in
  (* A 40-AS ring with chords: enough prefixes that each what-if's pool
     batch spans the swap. *)
  let ring =
    Topology.Asgraph.of_edges
      (List.init 40 (fun i -> (i + 1, ((i + 1) mod 40) + 1))
      @ List.init 8 (fun i -> ((5 * i) + 1, ((5 * i) + 20) mod 40 + 1)))
  in
  let snap0 = Snapshot.build (Qrmodel.initial ring) in
  let net = (Snapshot.model snap0).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  Snapshot.publish store snap0;
  let whatif (a, b) snap =
    match Query.eval snap (Protocol.Whatif { a; b }) with
    | Ok (Protocol.Whatif_summary s) ->
        Ok (Protocol.Whatif_summary { s with resume_hits = 0 })
    | r -> r
  in
  (* Different links, so an overlap shows in both answers. *)
  let old_link = (4, 5) and new_link = (21, 22) in
  let old_ref = whatif old_link snap0 and new_ref = whatif new_link snap0 in
  List.iter
    (function
      | Ok (Protocol.Whatif_summary { prefixes_affected; _ }) ->
          check_bool "reference reroutes" true (prefixes_affected > 0)
      | _ -> Alcotest.fail "reference what-if failed")
    [ old_ref; new_ref ];
  let spin_until cond =
    let give_up = Unix.gettimeofday () +. 10. in
    while (not (cond ())) && Unix.gettimeofday () < give_up do
      Thread.yield ()
    done;
    cond ()
  in
  for round = 1 to 20 do
    let old = Option.get (Snapshot.current store) in
    let held = Atomic.make false and opened = Atomic.make false in
    let reloaded = ref (Error "unset") in
    let on_old = ref None and on_new = ref None in
    let spawn f = Thread.create f () in
    let gate =
      spawn (fun () ->
          Snapshot.exclusive old (fun () ->
              Atomic.set held true;
              ignore (spin_until (fun () -> Atomic.get opened))))
    in
    ignore (spin_until (fun () -> Atomic.get held));
    let reload =
      spawn (fun () ->
          reloaded := Result.map ignore (Serve.Churn.reload store))
    in
    Thread.delay 0.005;
    let on_old_t =
      spawn (fun () ->
          on_old :=
            match whatif old_link old with
            | r -> Some r
            | exception Snapshot.Retired -> None)
    in
    Thread.delay 0.005;
    let on_new_t =
      spawn (fun () ->
          let swapped () = Option.get (Snapshot.current store) != old in
          if spin_until swapped then
            on_new := Option.map (whatif new_link) (Snapshot.current store))
    in
    Atomic.set opened true;
    List.iter Thread.join [ gate; reload; on_old_t; on_new_t ];
    let name what = Printf.sprintf "round %d: %s" round what in
    (match !reloaded with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" (name "reload failed") e);
    (match !on_old with
    | None -> ()
    | Some r ->
        check_bool (name "old what-if as sequential") true (r = old_ref));
    check_bool (name "successor what-if as sequential") true
      (!on_new = Some new_ref);
    check_int (name "denies restored") denies0 (fst (Net.count_policies net))
  done;
  Option.iter Snapshot.retire (Snapshot.current store)

(* RD_WARM governs the serve re-simulations as it does refinement and
   replay: [Off] never resumes, [Verify] compares every resume with a
   cold run, and the what-if answer is the same in every mode. *)
let whatif_reload_follow_warm_mode () =
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  (* Faults pinned off: a fault-injection retry would add cold runs to
     the exact count below. *)
  let run warm =
    with_runtime (fun rt -> { rt with Runtime.warm; faults = None })
    @@ fun () ->
    let w0 = Warm.stats () in
    let whatif =
      match
        Query.eval
          (Option.get (Snapshot.current store))
          (Protocol.Whatif { a = 4; b = 5 })
      with
      | Ok (Protocol.Whatif_summary _ as payload) -> payload
      | Ok _ -> Alcotest.fail "unexpected what-if payload"
      | Error e -> Alcotest.failf "whatif failed: %s" e
    in
    let reload_hits =
      match Serve.Churn.reload store with
      | Ok (Protocol.Reloaded { resume_hits; _ }) -> resume_hits
      | Ok _ -> Alcotest.fail "unexpected reload payload"
      | Error e -> Alcotest.failf "reload failed: %s" e
    in
    let w1 = Warm.stats () in
    let delta f = f w1 - f w0 in
    (whatif, reload_hits, delta)
  in
  let whatif_hits = function
    | Protocol.Whatif_summary { resume_hits; _ } -> resume_hits
    | _ -> -1
  in
  let masked = function
    | Protocol.Whatif_summary s ->
        Protocol.Whatif_summary { s with resume_hits = 0 }
    | p -> p
  in
  let off, off_reload, off_d = run Runtime.Warm_mode.Off in
  check_int "off: what-if never resumes" 0 (whatif_hits off);
  check_int "off: reload never resumes" 0 off_reload;
  check_int "off: no warm.resumed" 0 (off_d (fun w -> w.Warm.warm_runs));
  let on, on_reload, _ = run Runtime.Warm_mode.On in
  check_bool "on: what-if resumes" true (whatif_hits on > 0);
  check_bool "on: what-if skips prefixes off the link" true
    (whatif_hits on < 5);
  check_bool "on: reload resumes" true (on_reload > 0);
  (* The reload re-simulates all five prefixes; the what-if only those
     whose best routes cross the link, which the warm run counts as its
     resumes. *)
  check_int "off: warm.cold counts the reload and the crossing prefixes"
    (5 + whatif_hits on)
    (off_d (fun w -> w.Warm.cold_runs));
  let verify, _, verify_d = run Runtime.Warm_mode.Verify in
  check_bool "verify: pairs compared" true
    (verify_d (fun w -> w.Warm.verified) > 0);
  check_int "verify: zero divergences" 0
    (verify_d (fun w -> w.Warm.divergences));
  check_bool "on = off" true (masked on = masked off);
  check_bool "verify = off" true (masked verify = masked off);
  Option.iter Snapshot.retire (Snapshot.current store)

(* A what-if or reload whose re-simulation fails after the pool's retry
   answers with an error and leaves the net and the published snapshot
   as they were.  Full faults at rate 1.0, seed 1, kill the first task
   of both batches on this world. *)
let failed_resimulation_changes_nothing () =
  let store = Snapshot.store () in
  let no_faults f = with_runtime (fun rt -> { rt with Runtime.faults = None }) f in
  let snap = no_faults build_snapshot in
  Snapshot.publish store snap;
  let net = (Snapshot.model snap).Qrmodel.net in
  let fingerprints () =
    List.map
      (fun (p, st) -> (p, Simulator.Engine.state_fingerprint st))
      (Snapshot.states snap)
  in
  let denies0 = Net.count_policies net and fps0 = fingerprints () in
  let whatif () =
    (Query.eval_timed ~deadline_ms:0 snap (Protocol.Whatif { a = 4; b = 5 }))
      .Protocol.result
  in
  let answer0 = no_faults whatif in
  with_runtime
    (fun rt ->
      {
        rt with
        Runtime.faults =
          Some
            { Runtime.Fault.rate = 1.0; seed = 1; scope = Runtime.Fault.Full };
      })
    (fun () ->
      check_bool "what-if answers with an error" true
        (Result.is_error (whatif ()));
      check_bool "reload answers with an error" true
        (Result.is_error (Serve.Churn.reload store)));
  check_bool "policies as they were" true (Net.count_policies net = denies0);
  List.iter
    (fun (p, _) ->
      check_bool
        (Format.asprintf "%a untouched" Prefix.pp p)
        true
        (Net.touched_nodes net p = []))
    fps0;
  check_bool "the snapshot stays published" true
    (match Snapshot.current store with Some s -> s == snap | None -> false);
  check_bool "its states are unchanged" true (fingerprints () = fps0);
  check_bool "the next what-if answers as before" true
    (no_faults whatif = answer0);
  Snapshot.retire snap

(* -- pruned what-if = brute force -------------------------------------- *)

(* A small model of one generator family.  Every fourth AS gets a
   second quasi-router preferring its last eBGP neighbour, so an AS can
   select two paths and one can move while the other does not. *)
let family_model family =
  let topo =
    Netgen.generate family Netgen.Conf.tiny (Random.State.make [| 7 |])
  in
  let m = Qrmodel.initial (Netgen.Gentopo.as_graph topo) in
  let net = m.Qrmodel.net in
  List.iteri
    (fun i asn ->
      if i mod 4 = 0 then begin
        let d = Net.duplicate_node net (List.hd (Net.nodes_of_as net asn)) in
        match
          List.rev
            (List.filter
               (fun (s, _) -> Net.session_kind net d s = Net.Ebgp)
               (Net.sessions_of net d))
        with
        | (s, _) :: _ -> Net.set_import_lpref net d s 200
        | [] -> ()
      end)
    (Topology.Asgraph.nodes m.Qrmodel.graph);
  m

(* The what-if answer computed the slow way: deny the link on every
   served prefix, re-simulate each one cold from its cached state's
   originators, and compare every AS's selected paths.  Returns a
   function of the link; the unmodified side is simulated once. *)
let brute_whatif snap =
  let m = Snapshot.model snap in
  let net = m.Qrmodel.net in
  let states = Snapshot.states snap in
  let prefixes = List.map fst states in
  let ases = Topology.Asgraph.nodes m.Qrmodel.graph in
  let cold_paths () =
    List.map
      (fun (p, st) ->
        let cold =
          Simulator.Engine.simulate net ~prefix:p
            ~originators:(Simulator.Engine.originating st)
        in
        ( p,
          List.map
            (fun asn -> Simulator.Engine.selected_paths net cold asn)
            ases ))
      states
  in
  let before = cold_paths () in
  fun (a, b) ->
    let d = Asmodel.Whatif.disable_as_link ~prefixes m a b in
    let after =
      Fun.protect
        ~finally:(fun () ->
          Asmodel.Whatif.enable_as_link m d;
          List.iter (Net.clear_touched net) prefixes)
        cold_paths
    in
    let changes =
      List.filter_map
        (fun ((p, was), (_, now)) ->
          let moved =
            List.filter
              (fun (_, w, n) -> w <> n)
              (List.map2 (fun asn (w, n) -> (asn, w, n)) ases
                 (List.combine was now))
          in
          if moved = [] then None
          else
            Some
              ( p,
                List.map (fun (asn, _, _) -> asn) moved,
                List.length (List.filter (fun (_, _, n) -> n = []) moved) ))
        (List.combine before after)
    in
    Protocol.Whatif_summary
      {
        a;
        b;
        half_sessions = d.Asmodel.Whatif.half_sessions;
        prefixes_affected = List.length changes;
        ases_affected =
          List.length
            (List.sort_uniq compare
               (List.concat_map (fun (_, asns, _) -> asns) changes));
        resume_hits = 0;
        changes =
          List.filteri (fun i _ -> i < 20) changes
          |> List.map (fun (p, asns, lost) ->
                 {
                   Protocol.wc_prefix = p;
                   wc_changed = List.length asns;
                   wc_lost = lost;
                 });
      }

(* Every AS edge: the pruned what-if answers exactly as the brute force,
   with resume_hits masked, and leaves the deny set as it found it. *)
let check_every_edge label snap =
  let m = Snapshot.model snap in
  let net = m.Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  let oracle = brute_whatif snap in
  List.iter
    (fun (a, b) ->
      let got =
        match Query.eval snap (Protocol.Whatif { a; b }) with
        | Ok (Protocol.Whatif_summary s) ->
            Protocol.Whatif_summary { s with resume_hits = 0 }
        | Ok _ -> Alcotest.fail "unexpected payload"
        | Error e -> Alcotest.failf "%s: whatif %d-%d failed: %s" label a b e
      in
      check_bool
        (Printf.sprintf "%s: whatif %d-%d = brute force" label a b)
        true
        (got = oracle (a, b)))
    (Topology.Asgraph.edges m.Qrmodel.graph);
  check_int (label ^ ": denies restored") denies0
    (fst (Net.count_policies net))

let whatif_pruned_equals_brute_force () =
  List.iter
    (fun family ->
      let snap = Snapshot.build (family_model family) in
      check_every_edge (Netgen.Family.name family) snap;
      Snapshot.retire snap)
    [
      Netgen.Family.Paper;
      Netgen.Family.Waxman Netgen.Family.default_waxman;
      Netgen.Family.Glp Netgen.Family.default_glp;
      Netgen.Family.Fattree Netgen.Family.default_fattree;
    ]

(* After churn: a sub-prefix hijack and an announcement add prefixes
   the model does not originate, and a failed link leaves denies the
   what-if must neither double nor lift. *)
let whatif_pruned_after_churn () =
  let m = family_model Netgen.Family.Paper in
  let store = Snapshot.store () in
  Snapshot.publish store (Snapshot.build m);
  let edges = Topology.Asgraph.edges m.Qrmodel.graph in
  let victim, origin = List.hd m.Qrmodel.prefixes in
  let sub = Prefix.make (Prefix.network victim) (Prefix.length victim + 1) in
  let attacker, _ = List.nth edges (List.length edges / 2) in
  let fa, fb = List.nth edges 1 in
  let ev ts_ms action = Stream.Event.make ~ts_ms action in
  (match
     Serve.Churn.apply store
       [
         ev 0 (Stream.Event.Hijack { prefix = sub; attacker });
         ev 1
           (Stream.Event.Announce
              { prefix = Prefix.of_string_exn "99.0.0.0/8"; origin });
         ev 2 (Stream.Event.Link_fail { a = fa; b = fb });
       ]
   with
  | Ok report ->
      check_int "no quarantine" 0 (List.length report.Stream.Replay.quarantine)
  | Error e -> Alcotest.failf "churn apply failed: %s" e);
  let snap = Option.get (Snapshot.current store) in
  check_int "extra prefixes tracked"
    (List.length m.Qrmodel.prefixes + 2)
    (List.length (Snapshot.states snap));
  check_every_edge "churned" snap;
  Snapshot.retire snap

(* Neighbour-scoped MED has no total route order (RFC 3345): dropping a
   loser can change the winner, so every prefix is re-simulated. *)
let whatif_same_neighbor_med_resimulates_all () =
  let m = family_model Netgen.Family.Paper in
  Net.set_med_scope m.Qrmodel.net Simulator.Decision.Same_neighbor;
  let snap = Snapshot.build m in
  check_every_edge "same-neighbor" snap;
  let a, b = List.hd (Topology.Asgraph.edges m.Qrmodel.graph) in
  (with_runtime (fun rt ->
       { rt with Runtime.warm = Runtime.Warm_mode.On; faults = None })
  @@ fun () ->
  match Query.eval snap (Protocol.Whatif { a; b }) with
  | Ok (Protocol.Whatif_summary { resume_hits; _ }) ->
      check_int "every prefix resumed"
        (List.length (Snapshot.states snap))
        resume_hits
  | _ -> Alcotest.fail "whatif failed");
  Snapshot.retire snap

(* -- immutability under load ------------------------------------------ *)

(* Concurrent mixed queries against one snapshot return bit-identical
   results to a sequential run, and RD_CHECK=on records zero findings —
   no race and no mutation-discipline violation: serving never mutates
   the published snapshot (what-if mutations are confined to the
   executor, ordered with the queries, and reverted). *)
let concurrent_queries_immutable () =
  let prior = Ownership.current () in
  Ownership.reset ();
  Ownership.set Runtime.Check_mode.On;
  Fun.protect
    ~finally:(fun () ->
      Ownership.set prior;
      Ownership.reset ())
    (fun () ->
      let snap =
        with_runtime (fun rt -> { rt with Runtime.jobs = Some 4 })
          build_snapshot
      in
      let prefixes = List.map fst (Snapshot.states snap) in
      let reqs =
        Protocol.Ping
        :: Protocol.Whatif { a = 4; b = 5 }
        :: Protocol.Whatif { a = 1; b = 2 }
        :: List.concat_map
             (fun p ->
               [
                 Protocol.Path { prefix = p; asn = 5 };
                 Protocol.Catchment { egress = 1; prefix = Some p };
               ])
             prefixes
      in
      (* resume_hits counts warm resumes of the global engine counter
         during the what-if batch; fault-injection retries can shift it
         between runs, so normalize before comparing predictions. *)
      let normalize = function
        | Ok (Protocol.Whatif_summary s) ->
            Ok (Protocol.Whatif_summary { s with resume_hits = 0 })
        | r -> r
      in
      let expected = List.map (fun r -> normalize (Query.eval snap r)) reqs in
      let results = Array.make 4 [] in
      let worker i () =
        (* Each thread walks the battery from a different offset. *)
        let n = List.length reqs in
        let rotated =
          List.init n (fun k -> List.nth reqs ((k + i) mod n))
        in
        results.(i) <-
          List.map (fun r -> (r, normalize (Query.eval snap r))) rotated
      in
      let threads = List.init 4 (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join threads;
      let by_req = List.combine reqs expected in
      Array.iter
        (List.iter (fun (req, got) ->
             check_bool "concurrent result bit-identical" true
               (got = List.assoc req by_req)))
        results;
      check_int "zero checker findings" 0 (Ownership.count ()))

(* A write from a domain other than the builder's is ordered by the
   writer lock's happens-before channel: with RD_CHECK=on, a what-if
   whose first writer is a fresh domain, then one back in this domain,
   answer alike and record zero findings. *)
let whatif_from_another_domain () =
  let prior = Ownership.current () in
  Ownership.reset ();
  Ownership.set Runtime.Check_mode.On;
  Fun.protect
    ~finally:(fun () ->
      Ownership.set prior;
      Ownership.reset ())
    (fun () ->
      let snap = build_snapshot () in
      let whatif () =
        match Query.eval snap (Protocol.Whatif { a = 4; b = 5 }) with
        | Ok (Protocol.Whatif_summary s) ->
            Ok (Protocol.Whatif_summary { s with resume_hits = 0 })
        | r -> r
      in
      let elsewhere = Domain.join (Domain.spawn whatif) in
      check_bool "same answer in both domains" true (elsewhere = whatif ());
      check_int "zero checker findings" 0 (Ownership.count ()))

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick json_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_damage_total;
    Alcotest.test_case "request roundtrip" `Quick request_roundtrip;
    Alcotest.test_case "framing" `Quick framing;
    Alcotest.test_case "oversized header allocates as bytes arrive" `Quick
      oversized_header_bounded;
    Alcotest.test_case "read timeout" `Quick read_timeout;
    Alcotest.test_case "snapshot queries" `Quick snapshot_queries;
    Alcotest.test_case "whatif query restores" `Quick whatif_query_restores;
    Alcotest.test_case "server loopback" `Quick server_loopback;
    Alcotest.test_case "server shutdown stops" `Quick server_shutdown_stops;
    Alcotest.test_case "server forgets closed connections" `Quick
      server_forgets_closed_connections;
    Alcotest.test_case "reload swaps snapshot" `Quick reload_swaps_snapshot;
    Alcotest.test_case "churn apply publishes" `Quick churn_apply_publishes;
    Alcotest.test_case "ping counts served prefixes" `Quick
      ping_counts_served_prefixes;
    Alcotest.test_case "client disconnect keeps serving" `Quick
      client_disconnect_keeps_serving;
    Alcotest.test_case "overlong prefix answered" `Quick
      overlong_prefix_answered;
    Alcotest.test_case "churn pairs across applies" `Quick
      churn_pairs_across_applies;
    Alcotest.test_case "whatif after churn hijack" `Quick
      whatif_after_churn_hijack;
    Alcotest.test_case "concurrent apply and reload" `Quick
      concurrent_apply_reload;
    Alcotest.test_case "queries across reload" `Quick queries_across_reload;
    Alcotest.test_case "whatif across reload is serialized" `Quick
      whatif_across_reload_serialized;
    Alcotest.test_case "whatif and reload follow warm mode" `Quick
      whatif_reload_follow_warm_mode;
    Alcotest.test_case "a failed re-simulation changes nothing" `Quick
      failed_resimulation_changes_nothing;
    Alcotest.test_case "whatif pruned = brute force, every family" `Quick
      whatif_pruned_equals_brute_force;
    Alcotest.test_case "whatif pruned = brute force after churn" `Quick
      whatif_pruned_after_churn;
    Alcotest.test_case "whatif same-neighbor MED resimulates all" `Quick
      whatif_same_neighbor_med_resimulates_all;
    Alcotest.test_case "concurrent queries immutable" `Quick
      concurrent_queries_immutable;
    Alcotest.test_case "whatif from another domain" `Quick
      whatif_from_another_domain;
  ]
