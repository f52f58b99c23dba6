(** Wire front-end: length-prefixed JSON frames over a Unix-domain
    socket (the default) or loopback TCP.

    One accept loop; one systhread per connection (systhreads share the
    accepting domain — simulation parallelism lives in the {!Simulator.Pool},
    not here).  Each request frame is answered with exactly one
    response frame.  A [shutdown] request is answered, then the
    listening socket closes; established connections drain.

    Hardening: the accept loop retries transient failures (EINTR,
    ECONNABORTED immediately; EMFILE/ENFILE with exponential backoff —
    [serve.accept_retries] counts them); with a deadline configured,
    a peer stalling mid-frame is timed out after [deadline_ms]
    ([serve.read_timeouts]) and hung up on.  A [reload] request
    rebuilds the snapshot warm and atomically swaps it in
    ({!Churn.reload}); a write refused because a swap retired its
    snapshot ({!Snapshot.Retired}) is retried on the snapshot that
    replaced it, so a reload drops no connections. *)

type listen = Unix_path of string | Tcp of int
(** TCP binds to loopback only: the service is a local sidecar, not an
    Internet-facing daemon. *)

type t

val start : ?deadline_ms:int -> store:Snapshot.store -> listen -> t
(** Bind, listen and return immediately; connections are served on
    background threads against whatever snapshot {!Snapshot.current}
    returns at request time (queries before the first {!Snapshot.publish}
    get an error response).  [deadline_ms] overrides
    {!Simulator.Runtime.deadline_ms} for every query and doubles as
    the per-connection mid-frame read timeout.  A pre-existing
    Unix socket path is replaced. *)

val wait : t -> unit
(** Block until the server stops (a [shutdown] request or {!stop}),
    then until every connection handler has exited.  The server keeps
    only a count of open connections (the [serve.open_connections]
    gauge), not their threads, so finished connections cost nothing. *)

val stop : t -> unit
(** Close the listening socket (idempotent); unlinks the Unix path. *)

(** {2 Client} *)

type conn

val connect : listen -> (conn, string) result

val request : conn -> Protocol.request -> (Json.t, string) result
(** Send one request frame, read one response frame, parse the JSON. *)

val close_conn : conn -> unit
