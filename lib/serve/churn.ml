module Qrmodel = Asmodel.Qrmodel
module Asgraph = Topology.Asgraph
module Event = Stream.Event
module Replay = Stream.Replay

let reloads_m = Obs.Metrics.counter "serve.reloads"

let reload_resume_m = Obs.Metrics.counter "serve.reload_resume_hits"

(* Both writers run their whole read-modify-publish transaction under
   the store's churn mutex: a concurrent apply/reload pair would
   otherwise both build from the same snapshot's states and the second
   publish would silently discard the first one's applied events. *)

let reload store =
  Snapshot.locked store @@ fun () ->
  match Snapshot.current store with
  | None -> Error "no snapshot published"
  | Some snap -> (
      let t0 = Obs.Trace.now_us () in
      match
        Snapshot.exclusive snap (fun () ->
            let next, resume_hits = Snapshot.rebuild snap in
            Snapshot.publish store next;
            (next, resume_hits))
      with
      | exception exn -> Error (Printexc.to_string exn)
      | next, resume_hits ->
          Obs.Metrics.incr reloads_m;
          Obs.Metrics.incr ~by:resume_hits reload_resume_m;
          Ok
            (Protocol.Reloaded
               {
                 prefixes = List.length (Snapshot.states next);
                 resume_hits;
                 build_s =
                   float_of_int (Obs.Trace.now_us () - t0) /. 1e6;
               }))

(* A write leaves its resumed states' short-lived rows and routes in
   the minor heap.  Collecting them before the write returns keeps that
   collection, and the major slice it triggers, out of whichever read
   comes next: left to the allocator, it lands on a path query that
   otherwise costs a tenth of a millisecond. *)
let apply store events =
  Fun.protect ~finally:Gc.minor @@ fun () ->
  Snapshot.locked store @@ fun () ->
  match Snapshot.current store with
  | None -> Error "no snapshot published"
  | Some snap -> (
      let model = Snapshot.model snap in
      let graph = model.Qrmodel.graph in
      match
        Snapshot.exclusive snap (fun () ->
            let stream, rejects =
              Event.normalize ~known_as:(Asgraph.mem_node graph) events
            in
            (* Resume the replay driver from the published snapshot's
               persisted state, so a down/up (or hijack/hijack-end)
               pair split across apply calls still matches up. *)
            let rp =
              Replay.create
                ~states:(Snapshot.states snap)
                ?resume:(Snapshot.replay snap) model
            in
            match
              List.iter (fun ev -> ignore (Replay.apply rp ev)) stream;
              ignore (Replay.retry_quarantined rp);
              Replay.report rp ~rejected:(List.length rejects)
            with
            | report ->
                Snapshot.publish store
                  (Snapshot.of_states ~replay:(Replay.persist rp) snap
                     (Replay.states rp));
                report
            | exception exn ->
                (* The old snapshot stays published: undo the denies
                   this replay already placed on the shared net so it
                   keeps matching the published caches. *)
                Replay.rollback_net rp;
                raise exn)
      with
      | exception exn -> Error (Printexc.to_string exn)
      | report ->
          Obs.Metrics.incr reloads_m;
          Ok report)
