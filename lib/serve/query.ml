open Bgp
module Engine = Simulator.Engine
module Net = Simulator.Net
module Runtime = Simulator.Runtime
module Qrmodel = Asmodel.Qrmodel
module Whatif = Asmodel.Whatif

let queries_m = Obs.Metrics.counter "serve.queries"

let deadline_misses_m = Obs.Metrics.counter "serve.deadline_misses"

let latency_m = Obs.Metrics.histogram "serve.latency_us"

let whatif_resume_hits_m = Obs.Metrics.counter "serve.whatif_resume_hits"

let eval_path snap prefix asn =
  match Snapshot.state snap prefix with
  | None -> Error (Printf.sprintf "unknown prefix %s" (Prefix.to_string prefix))
  | Some st ->
      let model = Snapshot.model snap in
      let paths = Engine.selected_paths model.Qrmodel.net st asn in
      Ok (Protocol.Paths { prefix; asn; paths })

(* The catchment of an egress AS for a prefix: every AS (other than the
   egress itself) with a selected route that transits the egress.
   Selected paths start with the selecting AS, so any occurrence of the
   egress in another AS's path is a genuine transit (or terminal) hop. *)
let catchment_of_state model st egress =
  let net = model.Qrmodel.net in
  List.filter
    (fun asn ->
      asn <> egress
      && List.exists
           (fun path -> Array.exists (fun hop -> hop = egress) path)
           (Engine.selected_paths net st asn))
    (Topology.Asgraph.nodes model.Qrmodel.graph)

let eval_catchment snap egress prefix =
  let model = Snapshot.model snap in
  let targets =
    match prefix with
    | Some p -> (
        match Snapshot.state snap p with
        | Some st -> Ok [ (p, st) ]
        | None ->
            Error (Printf.sprintf "unknown prefix %s" (Prefix.to_string p)))
    | None -> Ok (Snapshot.states snap)
  in
  Result.map
    (fun targets ->
      Protocol.Catchment_members
        {
          egress;
          members =
            List.map
              (fun (p, st) -> (p, catchment_of_state model st egress))
              targets;
        })
    targets

(* The query's only mutation, {!Whatif.eval}, runs under the snapshot's
   writer lock; the pool batch inside it only reads.  It ends with a
   minor collection ({!Churn.apply} says why). *)
let eval_whatif snap a b =
  Fun.protect ~finally:Gc.minor @@ fun () ->
  Snapshot.exclusive snap (fun () ->
      let half_sessions, d =
        Whatif.eval (Snapshot.model snap) (Snapshot.states snap) a b
      in
      let resume_hits = d.Whatif.resumed in
      Obs.Metrics.incr ~by:resume_hits whatif_resume_hits_m;
      Ok
        (Protocol.Whatif_summary
           {
             a;
             b;
             half_sessions;
             prefixes_affected = d.Whatif.prefixes_affected;
             ases_affected = d.Whatif.ases_affected;
             resume_hits;
             changes =
               List.filteri (fun i _ -> i < 20) d.Whatif.changes
               |> List.map (fun c ->
                      {
                        Protocol.wc_prefix = c.Whatif.prefix;
                        wc_changed = List.length c.Whatif.ases_changed;
                        wc_lost = List.length c.Whatif.ases_lost;
                      });
           }))

let eval snap (req : Protocol.request) =
  match req with
  | Protocol.Path { prefix; asn } -> eval_path snap prefix asn
  | Protocol.Catchment { egress; prefix } -> eval_catchment snap egress prefix
  | Protocol.Whatif { a; b } -> eval_whatif snap a b
  | Protocol.Ping ->
      Ok
        (Protocol.Pong
           {
             prefixes = List.length (Snapshot.states snap);
             nodes = Net.node_count (Snapshot.model snap).Qrmodel.net;
           })
  | Protocol.Reload ->
      (* Reload swaps the store's published snapshot, which only the
         server owns; a bare snapshot cannot answer it. *)
      Error "reload requires server context"
  | Protocol.Shutdown -> Ok Protocol.Closing

let eval_timed ?deadline_ms snap req : Protocol.response =
  let deadline_ms =
    match deadline_ms with Some d -> d | None -> Runtime.deadline_ms ()
  in
  let start = Obs.Trace.now_us () in
  let result =
    try eval snap req with
    | Snapshot.Retired as exn -> raise exn
    | exn -> Error (Printexc.to_string exn)
  in
  let elapsed_us = Obs.Trace.now_us () - start in
  let deadline_missed = deadline_ms > 0 && elapsed_us > deadline_ms * 1000 in
  Obs.Metrics.incr queries_m;
  Obs.Metrics.observe latency_m elapsed_us;
  if deadline_missed then Obs.Metrics.incr deadline_misses_m;
  { Protocol.result; elapsed_us; deadline_missed }
