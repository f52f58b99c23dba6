(* Hash-consing of AS-path arrays, scoped to the net they serve.

   Per-prefix simulation creates the same few hundred distinct AS paths
   over and over (one prepend per best change, re-imported at every
   peer), and every downstream consumer — RIB-In update suppression,
   the refiner's suffix matching, the oscillation watchdog — compares
   them structurally.  Interning maps each path to one canonical array
   so that (a) repeated prepends of the same best route allocate
   nothing, and (b) comparisons can take a physical-equality fast path
   before falling back to structural equality.

   Scope: the tables serve one net.  Every [Net.t] carries a [scope]
   token, and [Engine.exec] enters it for the length of a run, so a
   net's paths live exactly as long as the net: a process that builds
   and observes one world after another holds one world's paths, not
   every dead world's.  The domain that created the token keeps its
   tables in the token itself (no lookup, no allocation to enter); any
   other domain maps the token to its own tables through an ephemeron
   table, whose entries die with the token.  Outside a run, interning
   uses the domain's ambient tables.

   Domain safety: every table is written by one domain only, so worker
   domains of {!Pool} never share mutable state and need no locks.
   Canonical identity is therefore {e per domain and scope} — two
   domains may intern the same path into different arrays — which is
   why every comparison keeps the structural fallback ([==] first is an
   optimisation, never the definition).  Pool workers are short-lived
   (one batch), so their tables are reclaimed with them.  Systhreads
   share their domain's current tables (the query server's connection
   threads all run the engine), so a run preempted by another thread's
   run may intern into the other net's tables: that costs sharing,
   never correctness. *)

module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a == b || a = b

  (* [Hashtbl.hash] truncates long structures; fine for a table (the
     [equal] above resolves collisions), unlike for fingerprints. *)
  let hash (a : int array) = Hashtbl.hash a
end)

(* Caps keep a pathological workload (millions of distinct paths in one
   scope) from growing the tables without bound; resetting only costs
   future hits, never correctness. *)
let table_cap = 1 lsl 16

let empty_path : int array = [||]

(* The prepend memo is keyed on [(own_as, path)] but probed through one
   reusable mutable key per table set: [Hashtbl.Make]'s [find]
   allocates nothing on a hit, so a hit builds no key tuple and no
   option.  Only a miss adds a fresh key. *)
type prepend_key = { mutable own_as : int; mutable p : int array }

module PrependTbl = Hashtbl.Make (struct
  type t = prepend_key

  let equal a b = a.own_as = b.own_as && Rattr.same_path a.p b.p
  let hash k = ((k.own_as * 1000003) lxor Hashtbl.hash k.p) land max_int
end)

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

(* Hash-consing of whole route-attribute records (the PR-3 path idea
   extended to [Rattr.t]).  Worth its probe only where the same record
   genuinely recurs: the engine interns originated routes (re-derived
   once per run per originator, shared across the runs of a net), not
   per-import candidates — cold-convergence imports almost never
   repeat, so funnelling them through the table measured 20-35 % of
   engine throughput for no sharing (see Engine.push_exports).  Keyed
   on every field: two routes that differ in any provenance field are
   different records (state fingerprints fold all fields in). *)
module RattrTbl = Hashtbl.Make (struct
  type t = Rattr.t

  let equal (a : Rattr.t) b =
    a == b
    || (a.Rattr.from_node = b.Rattr.from_node
       && a.Rattr.lpref = b.Rattr.lpref
       && a.Rattr.med = b.Rattr.med
       && a.Rattr.igp = b.Rattr.igp
       && a.Rattr.from_ip = b.Rattr.from_ip
       && a.Rattr.from_session = b.Rattr.from_session
       && a.Rattr.learned = b.Rattr.learned
       && a.Rattr.learned_class = b.Rattr.learned_class
       && Rattr.same_path a.Rattr.path b.Rattr.path)

  let hash (r : Rattr.t) =
    let h = ref (path_hash r.Rattr.path) in
    let mix x = h := (!h * 1000003) lxor (x land max_int) in
    mix r.Rattr.lpref;
    mix r.Rattr.med;
    mix r.Rattr.igp;
    mix r.Rattr.from_node;
    mix r.Rattr.from_ip;
    mix r.Rattr.from_session;
    mix (Hashtbl.hash r.Rattr.learned);
    mix r.Rattr.learned_class;
    !h land max_int
end)

type tables = {
  paths : int array Tbl.t;
  memo : int array PrependTbl.t;
  probe : prepend_key;
  rattrs : Rattr.t RattrTbl.t;
}

let fresh_tables () =
  {
    paths = Tbl.create 1024;
    memo = PrependTbl.create 1024;
    probe = { own_as = 0; p = empty_path };
    rattrs = RattrTbl.create 1024;
  }

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

(* A domain's current tables (its ambient set outside any run) and its
   tables for scopes another domain created. *)
type domain = { mutable cur : tables; foreign : tables Scopes.t }

let domain_key : domain Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { cur = fresh_tables (); foreign = Scopes.create 8 })

let tables_of d s =
  if s.home = (Domain.self () :> int) then (
    match s.own with
    | Some t -> t
    | None ->
        let t = fresh_tables () in
        s.own <- Some t;
        t)
  else
    match Scopes.find_opt d.foreign s with
    | Some t -> t
    | None ->
        let t = fresh_tables () in
        Scopes.add d.foreign s t;
        t

type saved = tables

let enter s =
  let d = Domain.DLS.get domain_key in
  let saved = d.cur in
  d.cur <- tables_of d s;
  saved

let leave saved = (Domain.DLS.get domain_key).cur <- saved

let intern_path tbl (p : int array) =
  if Array.length p = 0 then empty_path
  else
    match Tbl.find_opt tbl p with
    | Some q -> q
    | None ->
        if Tbl.length tbl >= table_cap then Tbl.reset tbl;
        Tbl.add tbl p p;
        p

let path p = intern_path (Domain.DLS.get domain_key).cur.paths p

let prepend ~own_as (p : int array) =
  let { paths; memo; probe; _ } = (Domain.DLS.get domain_key).cur in
  probe.own_as <- own_as;
  probe.p <- p;
  try PrependTbl.find memo probe
  with Not_found ->
    let len = Array.length p in
    let out = Array.make (len + 1) own_as in
    Array.blit p 0 out 1 len;
    let out = intern_path paths out in
    if PrependTbl.length memo >= table_cap then PrependTbl.reset memo;
    PrependTbl.add memo { own_as; p } out;
    out

let rattr (r : Rattr.t) =
  let tbl = (Domain.DLS.get domain_key).cur.rattrs in
  match RattrTbl.find_opt tbl r with
  | Some q -> q
  | None ->
      if RattrTbl.length tbl >= table_cap then RattrTbl.reset tbl;
      RattrTbl.add tbl r r;
      r

type stats = { paths : int; prepends : int; rattrs : int }

let stats () =
  let t = (Domain.DLS.get domain_key).cur in
  {
    paths = Tbl.length t.paths;
    prepends = PrependTbl.length t.memo;
    rattrs = RattrTbl.length t.rattrs;
  }
