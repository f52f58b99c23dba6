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
  type t = Off | On

  let to_string = function Off -> "off" | On -> "on"

  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "" | "off" | "0" | "false" -> Ok Off
    | "on" | "1" | "true" -> Ok On
    | other -> Error (Printf.sprintf "bad check mode %S (want off|on)" other)
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

let parse_int ~valid ~want what s =
  match int_of_string_opt (String.trim s) with
  | Some n when valid n -> Ok n
  | Some _ | None -> Error (Printf.sprintf "bad %s %S (want %s)" what s want)

type knob = {
  flags : string list;
  env : string;
  docv : string;
  doc : string;
  parse : string -> t -> (t, string) result;
}

let knobs =
  [
    {
      flags = [ "--jobs"; "-j" ];
      env = "RD_JOBS";
      docv = "N";
      doc =
        "Worker domains for per-prefix simulation (default: $(b,RD_JOBS) or \
         the machine's recommended domain count).  Results are identical \
         for every value.";
      parse =
        (fun s rt ->
          Result.map
            (fun n -> { rt with jobs = Some n })
            (parse_int ~valid:(fun n -> n >= 1) ~want:"a positive integer"
               "job count" s));
    };
    {
      flags = [ "--warm" ];
      env = "RD_WARM";
      docv = "off|on|verify";
      doc =
        "Warm-start re-simulation in the refinement loop, churn replay and \
         serve (default: $(b,RD_WARM) or $(b,on)).  $(b,on) resumes each \
         changed prefix from its previous converged state; $(b,verify) runs \
         cold and warm side by side and reports any divergence; $(b,off) \
         always simulates from scratch.";
      parse =
        (fun s rt ->
          Result.map (fun warm -> { rt with warm }) (Warm_mode.parse s));
    };
    {
      flags = [ "--check" ];
      env = "RD_CHECK";
      docv = "off|on";
      doc =
        "Run the happens-before race detector and audit the batch scope and \
         warm-start bookkeeping of every network mutation (default: \
         $(b,RD_CHECK) or $(b,off)).  Findings are reported, not raised; \
         $(b,--strict) escalates them to exit 4.";
      parse =
        (fun s rt ->
          Result.map (fun check -> { rt with check }) (Check_mode.parse s));
    };
    {
      flags = [ "--faults" ];
      env = "RD_FAULTS";
      docv = "RATE:SEED[:full]";
      doc =
        "Inject deterministic faults into the simulation pipeline (default: \
         $(b,RD_FAULTS)).  $(b,RATE:SEED) throws transient, retried task \
         failures; $(b,RATE:SEED:full) adds permanent failures and shrunk \
         engine budgets; $(b,off) disables.";
      parse =
        (fun s rt ->
          Result.map (fun faults -> { rt with faults }) (Fault.parse s));
    };
    {
      flags = [ "--trace" ];
      env = "RD_TRACE";
      docv = "off|summary|FILE.json";
      doc =
        "Record spans of the simulation pipeline (default: $(b,RD_TRACE) or \
         $(b,off)).  $(b,summary) prints a per-span aggregate table after \
         the run; a file path writes Chrome trace-event JSON loadable in a \
         trace viewer.";
      parse =
        (fun s rt ->
          Result.map (fun trace -> { rt with trace }) (Obs.Trace.parse s));
    };
    {
      flags = [ "--port" ];
      env = "RD_PORT";
      docv = "N";
      doc =
        "Serve on loopback TCP port $(docv) instead of the Unix socket \
         (default: $(b,RD_PORT) or the Unix socket).";
      parse =
        (fun s rt ->
          Result.map
            (fun n -> { rt with port = Some n })
            (parse_int
               ~valid:(fun n -> n >= 1 && n <= 65535)
               ~want:"1..65535" "port" s));
    };
    {
      flags = [ "--deadline-ms" ];
      env = "RD_DEADLINE_MS";
      docv = "MS";
      doc =
        "Per-query deadline in milliseconds; overruns are answered anyway \
         but flagged and counted (default: $(b,RD_DEADLINE_MS) or 1000; \
         $(b,0) disables).";
      parse =
        (fun s rt ->
          Result.map
            (fun deadline_ms -> { rt with deadline_ms })
            (parse_int ~valid:(fun n -> n >= 0)
               ~want:"milliseconds >= 0; 0 = none" "deadline" s));
    };
  ]

let knob flag = List.find_opt (fun k -> List.mem flag k.flags) knobs

(* An unset or empty variable means "keep the default"; empty-string
   unsetting lets tests restore the environment with Unix.putenv. *)
let of_env () =
  List.fold_left
    (fun rt k ->
      match Option.map String.trim (Sys.getenv_opt k.env) with
      | None | Some "" -> rt
      | Some s -> (
          match k.parse s rt with
          | Ok rt -> rt
          | Error msg ->
              Logs.warn (fun m -> m "ignoring %s: %s" k.env msg);
              rt))
    default knobs

let with_argv rt args =
  let rec go rt acc = function
    | [] -> Ok (rt, List.rev acc)
    | arg :: rest -> (
        let key, inline =
          match String.index_opt arg '=' with
          | Some i ->
              ( String.sub arg 0 i,
                Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
          | None -> (arg, None)
        in
        match (knob key, inline, rest) with
        | None, _, _ -> go rt (arg :: acc) rest
        | Some _, None, [] -> Error (Printf.sprintf "%s needs a value" key)
        | Some k, Some v, rest | Some k, None, v :: rest -> (
            match k.parse v rt with
            | Ok rt -> go rt acc rest
            | Error msg -> Error (Printf.sprintf "%s: %s" key msg)))
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
