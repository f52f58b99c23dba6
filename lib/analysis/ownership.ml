module Net = Simulator.Net
module Pool = Simulator.Pool
module Runtime = Simulator.Runtime

type violation = {
  rule : string;
  domain : int;
  in_batch : bool;
  detail : string;
}

(* Per-net audit state, keyed by physical identity.  The list is
   bounded: RD_CHECK is a debug knob and each entry pins its net, so a
   long run creating many nets must not grow (or retain) without
   limit. *)
type entry = { net : Net.t; mutable last_gen : int }

let max_tracked = 256

let mutex = Mutex.create ()

let recorded : violation list ref = ref []

let nrecorded = Atomic.make 0

let tracked : entry list ref = ref []

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let record net m =
  let domain = (Domain.self () :> int) in
  let in_batch = Pool.batch_active () in
  Mutex.protect mutex (fun () ->
      let add rule detail =
        recorded := { rule; domain; in_batch; detail } :: !recorded;
        Atomic.incr nrecorded
      in
      let rule =
        match m with
        | Net.Structural { rule; _ } | Net.Policy { rule; _ } -> rule
      in
      let entry =
        match List.find_opt (fun e -> e.net == net) !tracked with
        | Some e -> e
        | None ->
            let e = { net; last_gen = min_int } in
            tracked := e :: take (max_tracked - 1) !tracked;
            e
      in
      if in_batch then
        add rule "mutation while a Pool batch is in flight";
      match m with
      | Net.Structural { generation; _ } ->
          if generation <= entry.last_gen then
            add rule
              (Printf.sprintf
                 "structural mutation did not bump the generation (still %d)"
                 generation);
          entry.last_gen <- max generation entry.last_gen
      | Net.Policy { prefix; node; _ } ->
          (* Reading the touched table is only safe outside a batch;
             inside one the batch-scope finding above already fired. *)
          if
            (not in_batch)
            && not (List.mem node (Net.touched_nodes net prefix))
          then
            add rule
              (Printf.sprintf
                 "per-prefix mutation did not record node %d in the touched \
                  set of %s"
                 node
                 (Format.asprintf "%a" Bgp.Prefix.pp prefix)))

(* The mode lives in {!Runtime} (with the other knobs); this module
   owns only the hooks.  [sync] reconciles them with the ambient mode —
   the analysis layer sits above the simulator, so Runtime cannot
   install them when the mode is set through Runtime directly; the
   next [current]/[ensure] call here does. *)
let installed = ref false

let sync (m : Runtime.Check_mode.t) =
  let on = m = On in
  if on <> !installed then begin
    installed := on;
    Net.set_mutation_hook (if on then Some record else None);
    Obs.Probe.set_hook (if on then Some Race.hook else None)
  end

let set check =
  Runtime.set { (Runtime.current ()) with check };
  sync check

let current () =
  let m = Runtime.check () in
  sync m;
  m

let ensure () = ignore (current ())

let violations () = Mutex.protect mutex (fun () -> List.rev !recorded)

let violation_count () = Atomic.get nrecorded

let count () = violation_count () + Race.race_count ()

let reset () =
  Mutex.protect mutex (fun () ->
      recorded := [];
      Atomic.set nrecorded 0;
      tracked := []);
  Race.reset ()

let pp_violation ppf v =
  Format.fprintf ppf "[%s] domain %d%s: %s" v.rule v.domain
    (if v.in_batch then " (in batch)" else "")
    v.detail

let findings () =
  List.map
    (fun v ->
      {
        Report.severity = Report.Error;
        rule = "rd-check-" ^ v.rule;
        location = Report.Network;
        message = Format.asprintf "%a" pp_violation v;
        hint =
          "mutate nets outside Pool batches, through the safe API (which \
           maintains the generation and touched-set bookkeeping)";
      })
    (violations ())
  @ Race.findings ()
