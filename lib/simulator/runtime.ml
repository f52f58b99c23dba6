module Warm_mode = struct
  type t = Off | On | Verify

  let to_string = function Off -> "off" | On -> "on" | Verify -> "verify"

  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "off" | "0" | "cold" -> Ok Off
    | "on" | "1" | "warm" -> Ok On
    | "verify" | "check" -> Ok Verify
    | other ->
        Error
          (Printf.sprintf "bad warm-start mode %S (want off|on|verify)" other)
end

module Check_mode = struct
  type t = Off | On | Race

  let to_string = function Off -> "off" | On -> "on" | Race -> "race"

  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "" | "off" | "0" | "false" -> Ok Off
    | "on" | "1" | "true" -> Ok On
    | "race" | "hb" -> Ok Race
    | other ->
        Error (Printf.sprintf "bad check mode %S (want off|on|race)" other)
end

module Fault = struct
  type scope = Transient | Full

  type t = { rate : float; seed : int; scope : scope }

  let parse s =
    match String.trim s with
    | "" | "0" | "off" -> Ok None
    | s -> (
        match String.split_on_char ':' s with
        | [ rate ] | [ rate; _ ] | [ rate; _; _ ]
          when float_of_string_opt rate = Some 0.0 ->
            Ok None
        | ([ rate; seed ] | [ rate; seed; _ ]) as fields -> (
            let scope =
              match fields with
              | [ _; _; "full" ] -> Ok Full
              | [ _; _ ] -> Ok Transient
              | [ _; _; other ] ->
                  Error
                    (Printf.sprintf "bad fault scope %S (want \"full\")" other)
              | _ -> assert false
            in
            match (float_of_string_opt rate, int_of_string_opt seed, scope) with
            | Some rate, Some seed, Ok scope when rate > 0.0 && rate <= 1.0 ->
                Ok (Some { rate; seed; scope })
            | Some _, Some _, (Ok _ as _ok) ->
                Error (Printf.sprintf "fault rate %S not in (0,1]" rate)
            | _, _, (Error _ as e) -> e
            | None, _, _ -> Error (Printf.sprintf "bad fault rate %S" rate)
            | _, None, _ -> Error (Printf.sprintf "bad fault seed %S" seed))
        | _ ->
            Error
              (Printf.sprintf "bad fault syntax %S (want RATE:SEED[:full])" s))

  let pp ppf t =
    Format.fprintf ppf "rate %.3f, seed %d, %s" t.rate t.seed
      (match t.scope with Transient -> "transient" | Full -> "full")
end

type t = {
  jobs : int option;
  warm : Warm_mode.t;
  check : Check_mode.t;
  faults : Fault.t option;
  trace : Obs.Trace.mode;
  port : int option;
  deadline_ms : int;
}

let default =
  {
    jobs = None;
    warm = Warm_mode.On;
    check = Check_mode.Off;
    faults = None;
    trace = Obs.Trace.Off;
    port = None;
    deadline_ms = 1000;
  }

(* An unset or empty variable means "keep the default"; empty-string
   unsetting lets tests restore the environment with Unix.putenv. *)
let env_value name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> ( match String.trim s with "" -> None | s -> Some s)

let of_env () =
  let knob name parse fallback =
    match env_value name with
    | None -> fallback
    | Some s -> (
        match parse s with
        | Ok v -> v
        | Error msg ->
            Logs.warn (fun m -> m "ignoring %s: %s" name msg);
            fallback)
  in
  let parse_jobs s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok (Some n)
    | Some _ | None ->
        Error (Printf.sprintf "bad job count %S (want a positive integer)" s)
  in
  let parse_port s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= 65535 -> Ok (Some n)
    | Some _ | None ->
        Error (Printf.sprintf "bad port %S (want 1..65535)" s)
  in
  let parse_deadline s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
        Error
          (Printf.sprintf "bad deadline %S (want milliseconds >= 0; 0 = none)"
             s)
  in
  {
    jobs = knob "RD_JOBS" parse_jobs default.jobs;
    warm = knob "RD_WARM" Warm_mode.parse default.warm;
    check = knob "RD_CHECK" Check_mode.parse default.check;
    faults = knob "RD_FAULTS" Fault.parse default.faults;
    trace = knob "RD_TRACE" Obs.Trace.parse default.trace;
    port = knob "RD_PORT" parse_port default.port;
    deadline_ms = knob "RD_DEADLINE_MS" parse_deadline default.deadline_ms;
  }

let with_argv rt args =
  let split_eq arg =
    match String.index_opt arg '=' with
    | Some i ->
        ( String.sub arg 0 i,
          Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
    | None -> (arg, None)
  in
  let rec go rt acc = function
    | [] -> Ok (rt, List.rev acc)
    | arg :: rest -> (
        let key, inline = split_eq arg in
        let consume apply =
          match
            match (inline, rest) with
            | Some v, _ -> Ok (v, rest)
            | None, v :: rest' -> Ok (v, rest')
            | None, [] -> Error (Printf.sprintf "%s needs a value" key)
          with
          | Error _ as e -> e
          | Ok (v, rest') -> (
              match apply v with
              | Ok rt -> Ok (rt, rest')
              | Error msg -> Error (Printf.sprintf "%s: %s" key msg))
        in
        let continue = function
          | Ok (rt, rest') -> go rt acc rest'
          | Error _ as e -> e
        in
        match key with
        | "--jobs" | "-j" ->
            continue
              (consume (fun v ->
                   match int_of_string_opt (String.trim v) with
                   | Some n when n >= 1 -> Ok { rt with jobs = Some n }
                   | Some _ | None ->
                       Error (Printf.sprintf "bad job count %S" v)))
        | "--warm" ->
            continue
              (consume (fun v ->
                   Result.map (fun m -> { rt with warm = m })
                     (Warm_mode.parse v)))
        | "--check" ->
            continue
              (consume (fun v ->
                   Result.map
                     (fun m -> { rt with check = m })
                     (Check_mode.parse v)))
        | "--faults" ->
            continue
              (consume (fun v ->
                   Result.map (fun f -> { rt with faults = f }) (Fault.parse v)))
        | "--trace" ->
            continue
              (consume (fun v ->
                   Result.map (fun m -> { rt with trace = m })
                     (Obs.Trace.parse v)))
        | "--port" ->
            continue
              (consume (fun v ->
                   match int_of_string_opt (String.trim v) with
                   | Some n when n >= 1 && n <= 65535 ->
                       Ok { rt with port = Some n }
                   | Some _ | None -> Error (Printf.sprintf "bad port %S" v)))
        | "--deadline-ms" ->
            continue
              (consume (fun v ->
                   match int_of_string_opt (String.trim v) with
                   | Some n when n >= 0 -> Ok { rt with deadline_ms = n }
                   | Some _ | None ->
                       Error (Printf.sprintf "bad deadline %S" v)))
        | _ -> go rt (arg :: acc) rest)
  in
  go rt [] args

(* The ambient configuration.  A plain ref under a mutex: reads are not
   on any hot path (the pool resolves jobs once per batch, the engine
   reads warm mode once per run). *)
let cache : t option ref = ref None

let cache_mutex = Mutex.create ()

let apply rt = Obs.Trace.set_mode rt.trace

let current () =
  match
    Mutex.protect cache_mutex (fun () ->
        match !cache with
        | Some rt -> (rt, false)
        | None ->
            let rt = of_env () in
            cache := Some rt;
            (rt, true))
  with
  | rt, fresh ->
      if fresh then apply rt;
      rt

let set rt =
  Mutex.protect cache_mutex (fun () -> cache := Some rt);
  apply rt

let set_jobs jobs = set { (current ()) with jobs }

let set_warm warm = set { (current ()) with warm }

let set_faults faults = set { (current ()) with faults }

let set_trace trace = set { (current ()) with trace }

let set_port port = set { (current ()) with port }

let set_deadline_ms deadline_ms = set { (current ()) with deadline_ms }

let jobs () =
  match (current ()).jobs with
  | Some j -> max 1 j
  | None -> Domain.recommended_domain_count ()

let warm () = (current ()).warm

let check () = (current ()).check

let faults () = (current ()).faults

let trace () = Obs.Trace.mode ()

let port () = (current ()).port

let deadline_ms () = (current ()).deadline_ms

let pp ppf rt =
  Format.fprintf ppf
    "jobs %s, warm %s, check %s, faults %s, trace %s, port %s, deadline %s"
    (match rt.jobs with Some j -> string_of_int j | None -> "auto")
    (Warm_mode.to_string rt.warm)
    (Check_mode.to_string rt.check)
    (match rt.faults with
    | Some f -> Format.asprintf "(%a)" Fault.pp f
    | None -> "off")
    (Obs.Trace.mode_to_string rt.trace)
    (match rt.port with Some p -> string_of_int p | None -> "unix")
    (if rt.deadline_ms = 0 then "none"
     else string_of_int rt.deadline_ms ^ "ms")
