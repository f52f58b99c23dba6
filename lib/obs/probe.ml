(* Happens-before instrumentation points.

   The simulator, serve and stream layers publish their concurrency
   structure through this hook: shared-object accesses (net structure,
   policy tables, CSR publish, engine state slabs, replay journals) and
   synchronization edges (Pool worker spawn/join, Snapshot writer
   sections) as release/acquire on named channels.  The analysis layer
   sits above all of them, so the race detector
   (Analysis.Race, half of the RD_CHECK=on mode) installs itself here —
   the same one-load-and-branch pattern as Net's mutation hook, chosen
   so the publishing layers never depend on the analysis library.

   With no hook installed (RD_CHECK=off, the default) every probe
   is one atomic load and a branch; call sites that must build an
   object or channel name guard the formatting behind {!enabled}. *)

type kind = Read | Write

type hook = {
  h_access : string -> string -> kind -> unit;  (* obj, site *)
  h_release : string -> unit;  (* channel *)
  h_acquire : string -> unit;  (* channel *)
}

let hook : hook option Atomic.t = Atomic.make None

let set_hook h = Atomic.set hook h

let enabled () = Atomic.get hook <> None

let access ~obj ~site kind =
  match Atomic.get hook with None -> () | Some h -> h.h_access obj site kind

let read ~obj ~site = access ~obj ~site Read

let write ~obj ~site = access ~obj ~site Write

let release ~chan =
  match Atomic.get hook with None -> () | Some h -> h.h_release chan

let acquire ~chan =
  match Atomic.get hook with None -> () | Some h -> h.h_acquire chan
