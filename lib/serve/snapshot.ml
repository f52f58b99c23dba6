open Bgp
module Engine = Simulator.Engine
module Qrmodel = Asmodel.Qrmodel
module Replay = Stream.Replay

(* One writer lock per lineage: [build] makes it, and every successor
   [of_states] derives from a snapshot shares it, so two writes on the
   one net they all wrap never overlap — not even a write that loaded a
   snapshot just before a churn swap retired it.  [chan] names the
   lock's happens-before channel for RD_CHECK=on, whose detector cannot
   see a mutex: it orders writers that sit in different domains. *)
type writer = { mu : Mutex.t; chan : string }

type t = {
  model : Qrmodel.t;
  states : (Prefix.t * Engine.state) list;
  by_prefix : (Prefix.t, Engine.state) Hashtbl.t;
  replay : Replay.persist option;
  writer : writer;
  retired : bool Atomic.t;
}

exception Retired

let make ?replay writer (model : Qrmodel.t) states =
  let by_prefix = Hashtbl.create (max 16 (List.length states)) in
  List.iter (fun (p, st) -> Hashtbl.replace by_prefix p st) states;
  {
    model;
    states;
    by_prefix;
    replay;
    writer;
    retired = Atomic.make false;
  }

let of_states ?replay prev states = make ?replay prev.writer prev.model states

let lineages = Atomic.make 0

let build (model : Qrmodel.t) =
  let states, _ = Qrmodel.simulate_all model in
  let chan =
    Printf.sprintf "snapshot.writer.%d" (Atomic.fetch_and_add lineages 1)
  in
  (* Hands the building domain's history to the first writer. *)
  Obs.Probe.release ~chan;
  make { mu = Mutex.create (); chan } model states

let model t = t.model

let states t = t.states

let state t p = Hashtbl.find_opt t.by_prefix p

let replay t = t.replay

let converged t =
  List.for_all (fun (_, st) -> Engine.converged st) t.states

let exclusive t f =
  Mutex.protect t.writer.mu @@ fun () ->
  if Atomic.get t.retired then raise Retired;
  let chan = t.writer.chan in
  Obs.Probe.acquire ~chan;
  Fun.protect ~finally:(fun () -> Obs.Probe.release ~chan) f

let retire t = Atomic.set t.retired true

let rebuild t =
  let states, batch = Qrmodel.resimulate t.model t.states in
  (of_states ?replay:t.replay t states, batch.Simulator.Warm.resumed)

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
