(* Vector-clock happens-before core (the FastTrack-style epoch scheme).

   Every domain carries a vector clock C_D; the instrumented layers
   publish synchronization edges as release/acquire pairs on named
   channels (Obs.Probe): release merges the releasing domain's clock
   into the channel's and bumps the domain's own component, acquire
   merges the channel's clock back.  Each shared object keeps the epoch
   of its last write and the epoch of the last read per domain; an
   access that is not ordered after a conflicting prior access (the
   prior epoch is not covered by the current domain's clock) is a race.

   Domain ids in OCaml are never reused within a process, so epochs
   keyed by domain id are unambiguous.  All state sits behind one
   mutex: RD_CHECK=on is a debug/CI mode and every probe site is at
   run/batch granularity, so serialization is acceptable — the bench's
   §CHECK section records its wall next to the off run.  Off, no hook
   is installed, and the obs test "off-mode hooks allocate nothing"
   checks that switching back to off leaves none behind. *)

type access = { site : string; domain : int }

type race = {
  obj : string;
  conflict : string;  (* "write-write" | "read-write" | "write-read" *)
  prior : access;
  current : access;
}

(* The single declared-benign-race allowlist (tentpole requirement:
   one list, anything undeclared fails).  An entry suppresses races on
   any object whose name contains the key; the reason is documentation. *)
let allowlist =
  [
    ( "/csr",
      "CSR publish: an Atomic holding an immutable per-generation index; \
       racing rebuilds produce equivalent values and any winner is correct" );
    ( "obs/metrics",
      "metrics counters: atomic cells where only the interleaving of \
       counts is unordered; totals are exact, timing attribution is not" );
  ]

let benign obj =
  List.exists
    (fun (key, _) ->
      let lk = String.length key and lo = String.length obj in
      let rec at i = i + lk <= lo && (String.sub obj i lk = key || at (i + 1)) in
      lk > 0 && lk <= lo && at 0)
    allowlist

(* -- clocks -- *)

type vc = (int, int) Hashtbl.t

let mutex = Mutex.create ()

let clocks : (int, vc) Hashtbl.t = Hashtbl.create 16

let channels : (string, vc) Hashtbl.t = Hashtbl.create 64

(* A domain's own component starts at 1, so an epoch from a domain no
   other clock has heard of is never mistaken for ordered (an absent
   component reads as 0). *)
let clock_of d =
  match Hashtbl.find_opt clocks d with
  | Some c -> c
  | None ->
      let c = Hashtbl.create 8 in
      Hashtbl.replace c d 1;
      Hashtbl.replace clocks d c;
      c

let vc_get (c : vc) d = match Hashtbl.find_opt c d with Some v -> v | None -> 0

let vc_merge ~(into : vc) (src : vc) =
  Hashtbl.iter (fun d v -> if v > vc_get into d then Hashtbl.replace into d v) src

(* -- objects -- *)

type epoch = { e_site : string; e_domain : int; e_clock : int }

type obj_state = { mutable w : epoch option; reads : (int, epoch) Hashtbl.t }

let objects : (string, obj_state) Hashtbl.t = Hashtbl.create 64

let obj_of name =
  match Hashtbl.find_opt objects name with
  | Some o -> o
  | None ->
      let o = { w = None; reads = Hashtbl.create 4 } in
      Hashtbl.replace objects name o;
      o

(* -- findings -- *)

let recorded : race list ref = ref []

let seen : (string * string * string * string, unit) Hashtbl.t =
  Hashtbl.create 64

let nraces = Atomic.make 0

let nbenign = Atomic.make 0

let report obj conflict (prior : epoch) ~site ~domain =
  if benign obj then Atomic.incr nbenign
  else begin
    let key = (obj, conflict, prior.e_site, site) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      recorded :=
        {
          obj;
          conflict;
          prior = { site = prior.e_site; domain = prior.e_domain };
          current = { site; domain };
        }
        :: !recorded;
      Atomic.incr nraces
    end
  end

(* -- the hook -- *)

let on_access obj site kind =
  let me = (Domain.self () :> int) in
  Mutex.protect mutex (fun () ->
      let c = clock_of me in
      let o = obj_of obj in
      let ordered (e : epoch) = e.e_clock <= vc_get c e.e_domain in
      let conflict (e : epoch) = e.e_domain <> me && not (ordered e) in
      let here = { e_site = site; e_domain = me; e_clock = vc_get c me } in
      match (kind : Obs.Probe.kind) with
      | Write ->
          (match o.w with
          | Some e when conflict e ->
              report obj "write-write" e ~site ~domain:me
          | _ -> ());
          Hashtbl.iter
            (fun _ e ->
              if conflict e then report obj "read-write" e ~site ~domain:me)
            o.reads;
          o.w <- Some here;
          Hashtbl.reset o.reads
      | Read -> (
          (match o.w with
          | Some e when conflict e ->
              report obj "write-read" e ~site ~domain:me
          | _ -> ());
          Hashtbl.replace o.reads me here;
          (* Keep the read map small: reads already ordered before the
             current one carry no extra constraint. *)
          if Hashtbl.length o.reads > 64 then
            let dead =
              Hashtbl.fold
                (fun d e acc ->
                  if d <> me && ordered e then d :: acc else acc)
                o.reads []
            in
            List.iter (Hashtbl.remove o.reads) dead))

let on_release chan =
  let me = (Domain.self () :> int) in
  Mutex.protect mutex (fun () ->
      let c = clock_of me in
      let ch =
        match Hashtbl.find_opt channels chan with
        | Some ch -> ch
        | None ->
            let ch = Hashtbl.create 8 in
            Hashtbl.replace channels chan ch;
            ch
      in
      vc_merge ~into:ch c;
      Hashtbl.replace c me (vc_get c me + 1))

let on_acquire chan =
  let me = (Domain.self () :> int) in
  Mutex.protect mutex (fun () ->
      let c = clock_of me in
      match Hashtbl.find_opt channels chan with
      | Some ch -> vc_merge ~into:c ch
      | None -> ())

let hook =
  {
    Obs.Probe.h_access = on_access;
    h_release = on_release;
    h_acquire = on_acquire;
  }

(* -- read side -- *)

let races () = Mutex.protect mutex (fun () -> List.rev !recorded)

let race_count () = Atomic.get nraces

let benign_count () = Atomic.get nbenign

let reset () =
  Mutex.protect mutex (fun () ->
      recorded := [];
      Hashtbl.reset seen;
      Atomic.set nraces 0;
      Atomic.set nbenign 0;
      Hashtbl.reset clocks;
      Hashtbl.reset channels;
      Hashtbl.reset objects)

let findings () =
  List.map
    (fun r ->
      {
        Report.severity = Report.Error;
        rule = "race-" ^ r.conflict;
        location = Report.Network;
        message =
          Printf.sprintf
            "unordered %s on %s: %s (domain %d) and %s (domain %d)"
            r.conflict r.obj r.prior.site r.prior.domain r.current.site
            r.current.domain;
        hint =
          "order the mutation with the reading batch (Pool join or \
           Snapshot.exclusive), or declare the object benign in \
           Analysis.Race.allowlist with a justification";
      })
    (races ())
