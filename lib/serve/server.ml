type listen = Unix_path of string | Tcp of int

let connections_m = Obs.Metrics.counter "serve.connections"

let accept_retries_m = Obs.Metrics.counter "serve.accept_retries"

let read_timeouts_m = Obs.Metrics.counter "serve.read_timeouts"

let open_connections_m = Obs.Metrics.gauge "serve.open_connections"

let sockaddr_of = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

type t = {
  listen : listen;
  fd : Unix.file_descr;
  store : Snapshot.store;
  deadline_ms : int option;
  stopping : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  conn_mu : Mutex.t;
  conn_closed : Condition.t;  (* signalled when [open_conns] drops *)
  mutable open_conns : int;  (* handlers still running, under [conn_mu] *)
}

(* Only a count of live handlers is kept, not their threads, so a
   long-lived server holds nothing for connections that have closed. *)
let adjust_open srv delta =
  Mutex.protect srv.conn_mu (fun () ->
      srv.open_conns <- srv.open_conns + delta;
      Obs.Metrics.set_gauge open_connections_m srv.open_conns;
      if delta < 0 then Condition.broadcast srv.conn_closed)

let stop srv =
  if not (Atomic.exchange srv.stopping true) then begin
    (* close alone does not wake a thread blocked in accept(2); shutdown
       does (the accepter gets EINVAL). *)
    (try Unix.shutdown srv.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close srv.fd with Unix.Unix_error _ -> ());
    match srv.listen with
    | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

let handle_connection srv client =
  Obs.Metrics.incr connections_m;
  let respond resp =
    Protocol.write_frame client (Protocol.response_to_string resp)
  in
  let error_response msg =
    { Protocol.result = Error msg; elapsed_us = 0; deadline_missed = false }
  in
  let eval req =
    (* A write can race a churn-triggered rebuild-and-swap: the snapshot
       it loaded is retired before it takes the writer lock, and the
       write is refused without running.  The lock is not FIFO, so the
       retry can lose to the next swap too; each refusal means a swap
       published a successor, so retry on it.  Only a snapshot retired
       with nothing in its place is an error. *)
    let rec go () =
      match Snapshot.current srv.store with
      | None -> error_response "no snapshot published"
      | Some snap -> (
          try Query.eval_timed ?deadline_ms:srv.deadline_ms snap req
          with Snapshot.Retired -> (
            match Snapshot.current srv.store with
            | Some next when next != snap -> go ()
            | _ -> error_response "snapshot is retired"))
    in
    go ()
  in
  let reload () =
    let start = Obs.Trace.now_us () in
    let result = Churn.reload srv.store in
    { Protocol.result; elapsed_us = Obs.Trace.now_us () - start;
      deadline_missed = false }
  in
  let rec loop () =
    match Protocol.read_frame ?deadline_ms:srv.deadline_ms client with
    | Ok None -> ()
    | Error msg ->
        (* A framing error (or mid-frame stall) poisons the stream:
           answer and hang up. *)
        if msg = Protocol.read_timeout_msg then
          Obs.Metrics.incr read_timeouts_m;
        (try respond (error_response msg) with _ -> ())
    | Ok (Some payload) -> (
        match Protocol.request_of_string payload with
        | Error msg ->
            respond (error_response msg);
            loop ()
        | Ok Protocol.Reload ->
            respond (reload ());
            loop ()
        | Ok req -> (
            let resp = eval req in
            respond resp;
            match (req, resp.Protocol.result) with
            | Protocol.Shutdown, Ok _ -> stop srv
            | _ -> loop ()))
  in
  (try loop () with _ -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

let accept_loop srv () =
  (* Transient accept(2) failures must not kill the listener: EINTR and
     ECONNABORTED retry immediately, fd exhaustion (EMFILE/ENFILE)
     backs off exponentially until connections drain.  Any other error
     means the socket is gone (stop closed it): exit. *)
  let rec go backoff =
    if not (Atomic.get srv.stopping) then
      match Unix.accept srv.fd with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          Obs.Metrics.incr accept_retries_m;
          go backoff
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          Obs.Metrics.incr accept_retries_m;
          Thread.delay backoff;
          go (Float.min (backoff *. 2.) 1.0)
      | exception Unix.Unix_error _ -> () (* closed by stop *)
      | client, _addr ->
          (* Counted before the thread starts, so [wait] cannot miss a
             handler that has not yet run. *)
          adjust_open srv 1;
          let serve client =
            Fun.protect
              ~finally:(fun () -> adjust_open srv (-1))
              (fun () -> handle_connection srv client)
          in
          (match Thread.create serve client with
          | _ -> ()
          | exception _ ->
              adjust_open srv (-1);
              (try Unix.close client with Unix.Unix_error _ -> ()));
          go 0.01
  in
  go 0.01

let start ?deadline_ms ~store listen =
  (* A client that disconnects before its response is written must
     surface as EPIPE on that connection's write, not as a SIGPIPE that
     kills the whole process — per-connection exception handlers cannot
     catch a signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd =
    Unix.socket
      (match listen with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  (match listen with
  | Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (sockaddr_of listen);
  Unix.listen fd 64;
  let srv =
    {
      listen;
      fd;
      store;
      deadline_ms;
      stopping = Atomic.make false;
      accept_thread = None;
      conn_mu = Mutex.create ();
      conn_closed = Condition.create ();
      open_conns = 0;
    }
  in
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  srv

let wait srv =
  (match srv.accept_thread with Some t -> Thread.join t | None -> ());
  Mutex.protect srv.conn_mu (fun () ->
      while srv.open_conns > 0 do
        Condition.wait srv.conn_closed srv.conn_mu
      done)

(* -- client -- *)

type conn = Unix.file_descr

let connect listen =
  let fd =
    Unix.socket
      (match listen with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  match Unix.connect fd (sockaddr_of listen) with
  | () -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message err)

let request conn req =
  match Protocol.write_frame conn (Protocol.request_to_string req) with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | () -> (
      match Protocol.read_frame conn with
      | Error msg -> Error msg
      | Ok None -> Error "connection closed"
      | Ok (Some payload) -> Json.of_string payload)

let close_conn conn = try Unix.close conn with Unix.Unix_error _ -> ()
