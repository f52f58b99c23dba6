open Bgp
module Engine = Simulator.Engine
module Net = Simulator.Net
module Pool = Simulator.Pool
module Warm = Simulator.Warm
module Qrmodel = Asmodel.Qrmodel
module Whatif = Asmodel.Whatif
module Replay = Stream.Replay

(* Executor: a dedicated systhread that runs every what-if mutation.
   Systhreads stay in the domain that created them, so funnelling all
   net mutations through this thread keeps the mutating domain constant
   (the builder's) no matter which connection thread or test domain
   issues the query, and the hand-off below orders each mutation with
   its caller — RD_CHECK then records zero findings while serving.  It
   also serializes what-ifs, which the save/restore discipline
   requires. *)

type exec = {
  mu : Mutex.t;
  cond : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable thread : Thread.t option;
}

let exec_loop e () =
  let rec go () =
    Mutex.lock e.mu;
    while Queue.is_empty e.jobs && not e.stop do
      Condition.wait e.cond e.mu
    done;
    if Queue.is_empty e.jobs then Mutex.unlock e.mu
    else begin
      let job = Queue.pop e.jobs in
      Mutex.unlock e.mu;
      job ();
      go ()
    end
  in
  go ()

let exec_create () =
  let e =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      jobs = Queue.create ();
      stop = false;
      thread = None;
    }
  in
  e.thread <- Some (Thread.create (exec_loop e) ());
  e

let exec_stop e =
  Mutex.lock e.mu;
  e.stop <- true;
  Condition.broadcast e.cond;
  Mutex.unlock e.mu;
  match e.thread with
  | Some t ->
      Thread.join t;
      e.thread <- None
  | None -> ()

type t = {
  model : Qrmodel.t;
  states : (Prefix.t * Engine.state) list;
  by_prefix : (Prefix.t, Engine.state) Hashtbl.t;
  baseline : Whatif.snapshot;
  replay : Replay.persist option;
  exec : exec;
}

let of_states ?replay (model : Qrmodel.t) states =
  let baseline = Whatif.of_states model states in
  let by_prefix = Hashtbl.create (max 16 (List.length states)) in
  List.iter (fun (p, st) -> Hashtbl.replace by_prefix p st) states;
  {
    model;
    states;
    by_prefix;
    baseline;
    replay;
    exec = exec_create ();
  }

let build (model : Qrmodel.t) =
  let states, _ = Qrmodel.simulate_all model in
  of_states model states

let model t = t.model

let states t = t.states

let state t p = Hashtbl.find_opt t.by_prefix p

let baseline t = t.baseline

let replay t = t.replay

let converged t =
  List.for_all (fun (_, st) -> Engine.converged st) t.states

(* Per-call channel ids for the happens-before edges published below:
   the submitting caller may sit in a different domain than the
   executor thread, so under RD_CHECK=on the enqueue/signal pair is
   declared as release/acquire (and the result hand-back as the reverse
   pair) — exactly the ordering the mutex+condvar already provide. *)
let exclusive_uid = Atomic.make 0

let exclusive t f =
  let result = ref None in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let probing = Obs.Probe.enabled () in
  let chan =
    if probing then
      Printf.sprintf "snapshot.exec.%d" (Atomic.fetch_and_add exclusive_uid 1)
    else ""
  in
  let job () =
    if probing then Obs.Probe.acquire ~chan:(chan ^ ".submit");
    let r = try Ok (f ()) with exn -> Error exn in
    if probing then Obs.Probe.release ~chan:(chan ^ ".done");
    Mutex.lock mu;
    result := Some r;
    Condition.signal cond;
    Mutex.unlock mu
  in
  Mutex.lock t.exec.mu;
  if t.exec.stop then begin
    Mutex.unlock t.exec.mu;
    invalid_arg "Snapshot.exclusive: snapshot is retired"
  end;
  if probing then Obs.Probe.release ~chan:(chan ^ ".submit");
  Queue.add job t.exec.jobs;
  Condition.signal t.exec.cond;
  Mutex.unlock t.exec.mu;
  Mutex.lock mu;
  while Option.is_none !result do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  if probing then Obs.Probe.acquire ~chan:(chan ^ ".done");
  match Option.get !result with Ok v -> v | Error exn -> raise exn

let retire t = exec_stop t.exec

(* Originators come from each cached state itself, so prefixes a churn
   replay added beyond the model's survive a re-simulation. *)
let resimulate t =
  let net = t.model.Qrmodel.net in
  Pool.simulate
    ~sim:(fun p ->
      let from = state t p in
      let originators =
        match from with
        | Some st -> Engine.originating st
        | None -> Qrmodel.originators t.model p
      in
      Warm.simulate ?from net ~prefix:p ~originators)
    (List.map fst t.states)

(* Callers run this through [exclusive] so the rebuild serializes with
   what-if mutation, then [publish] outside it — the retire inside
   publish joins this executor, which must not happen from its own
   thread. *)
let rebuild t =
  let states, _ = resimulate t in
  List.iter (fun (p, _) -> Net.clear_touched t.model.Qrmodel.net p) states;
  of_states ?replay:t.replay t.model states

(* -- atomic swap -- *)

(* The mutex serializes whole churn transactions (read current →
   replay/rebuild → publish); without it two writers that both read
   the same snapshot would each build from its states and the second
   publish would silently discard the first one's applied events.
   Readers never take it: [current] stays one atomic load. *)
type store = { cell : t option Atomic.t; churn_mu : Mutex.t }

let store () = { cell = Atomic.make None; churn_mu = Mutex.create () }

let publish store t =
  let prev = Atomic.exchange store.cell (Some t) in
  match prev with Some old when old != t -> retire old | _ -> ()

let current store = Atomic.get store.cell

let locked store f = Mutex.protect store.churn_mu f
