(* The eBGP prepend memo, scoped to the net it serves.

   Per-prefix simulation makes the same few hundred distinct AS paths
   over and over: every best-route change re-exports a prepended path,
   and most of them re-export a route the node has prepended before.
   The prepend is the only AS-path the engine makes (originated routes
   carry the empty path, iBGP passes paths on unchanged), so memoizing
   it is all the path sharing there is to have: (a) re-exporting an
   unchanged best route allocates nothing, and (b) every peer receives
   the same array, so comparisons can take a physical-equality fast
   path before falling back to structural equality.

   Scope: a memo serves one net.  Every [Net.t] carries a [scope]
   token, and an engine run fetches its domain's tables for the token
   once, so a net's paths live exactly as long as the net: a process
   that builds and observes one world after another holds one world's
   paths, not every dead world's.  The domain that created the token
   keeps its tables in the token itself (no lookup, no allocation to
   fetch); any other domain maps the token to its own tables through
   an ephemeron table, whose entries die with the token.

   Domain safety: every table is written by one domain only, so worker
   domains of {!Pool} never share mutable state and need no locks.
   Memoized identity is therefore {e per domain and scope} — two
   domains may prepend the same path into different arrays — which is
   why every comparison keeps the structural fallback ([==] first is an
   optimisation, never the definition).  Pool workers are short-lived
   (one batch), so their tables are reclaimed with them.  Systhreads
   share their domain's tables, so two threads must not run the same
   net at once; the query server's what-if and churn writes, its only
   runs after start-up, hold the snapshot's writer lock. *)

(* A cap keeps a pathological workload (millions of distinct prepends
   in one scope) from growing the memo without bound; resetting only
   costs future hits, never correctness. *)
let table_cap = 1 lsl 16

(* The memo is keyed on [(own_as, path)] but probed through one
   reusable mutable key per table: [Hashtbl.Make]'s [find] allocates
   nothing on a hit, so a hit builds no key tuple and no option.  Only
   a miss adds a fresh key. *)
type key = { mutable own_as : int; mutable p : int array }

module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b = a.own_as = b.own_as && Rattr.same_path a.p b.p

  (* [Hashtbl.hash] truncates long structures; fine for a table (the
     [equal] above resolves collisions), unlike for fingerprints. *)
  let hash k = ((k.own_as * 1000003) lxor Hashtbl.hash k.p) land max_int
end)

type tables = { memo : int array Memo.t; probe : key }

let fresh_tables () =
  { memo = Memo.create 1024; probe = { own_as = 0; p = [||] } }

(* [own] belongs to domain [home] alone: only that domain reads or
   writes it. *)
type scope = { uid : int; home : int; mutable own : tables option }

let next_uid = Atomic.make 0

let scope () =
  {
    uid = Atomic.fetch_and_add next_uid 1;
    home = (Domain.self () :> int);
    own = None;
  }

module Scopes = Ephemeron.K1.Make (struct
  type t = scope

  let equal = ( == )
  let hash s = s.uid
end)

(* A domain's tables for scopes another domain created. *)
let foreign_key : tables Scopes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Scopes.create 8)

let tables s =
  if s.home = (Domain.self () :> int) then (
    match s.own with
    | Some t -> t
    | None ->
        let t = fresh_tables () in
        s.own <- Some t;
        t)
  else
    let foreign = Domain.DLS.get foreign_key in
    match Scopes.find_opt foreign s with
    | Some t -> t
    | None ->
        let t = fresh_tables () in
        Scopes.add foreign s t;
        t

let prepend { memo; probe } ~own_as (p : int array) =
  probe.own_as <- own_as;
  probe.p <- p;
  try Memo.find memo probe
  with Not_found ->
    let len = Array.length p in
    let out = Array.make (len + 1) own_as in
    Array.blit p 0 out 1 len;
    if Memo.length memo >= table_cap then Memo.reset memo;
    Memo.add memo { own_as; p } out;
    out

let size t = Memo.length t.memo

(* Full-width polynomial hash over every element — the watchdog
   fingerprint needs the whole path folded in ([Hashtbl.hash] truncates
   deep/wide values).  Folding a short path is cheaper than a memo-table
   probe, so nothing is cached. *)
let path_hash (p : int array) =
  let h = ref (Array.length p) in
  for i = 0 to Array.length p - 1 do
    h := (!h * 1000003) lxor (p.(i) land max_int)
  done;
  !h
