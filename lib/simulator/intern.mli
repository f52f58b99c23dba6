(** Hash-consing of AS-path arrays, scoped to the net they serve.

    The engine funnels every path it creates through this module so
    that identical paths within a run share one canonical array:
    repeated eBGP prepends of the same best route allocate nothing, and
    path comparisons can try physical equality before structural
    equality.  Each net carries a {!scope}, and [Engine.exec] enters it
    for the length of a run, so the tables of a net die with the net.
    Tables are domain-local — no locks, no sharing between {!Pool}
    workers — so canonical identity is per domain and scope, and
    callers must always keep a structural fallback.  Outside any scope,
    interning uses the domain's ambient tables. *)

type scope
(** A token naming one set of tables per domain.  The domain that made
    it keeps its tables in the token; other domains find theirs through
    an ephemeron table.  Either way, the tables are reclaimed with the
    token. *)

val scope : unit -> scope
(** A fresh scope; [Net.create] makes one per net. *)

type saved
(** The tables a domain used before {!enter}. *)

val enter : scope -> saved
(** [enter s] makes [s]'s tables the current domain's until the
    matching {!leave}, and returns what it replaced.  Entering a scope
    the domain made allocates nothing after the first time; re-entering
    any scope finds the tables it filled before, so switching between
    live nets re-interns nothing. *)

val leave : saved -> unit
(** [leave saved] restores the tables {!enter} replaced. *)

val path : int array -> int array
(** [path p] is the canonical array equal to [p] in the current
    domain's current tables (possibly [p] itself).  The empty path is a
    global constant. *)

val prepend : own_as:int -> int array -> int array
(** [prepend ~own_as p] is the canonical array for [own_as] consed onto
    [p] — the eBGP export prepend — memoized per [(own_as, p)], so the
    common case (re-exporting an unchanged best route) is a hit, and a
    hit allocates nothing: the memo is probed through one reusable key
    per table set, with no key tuple and no option. *)

val path_hash : int array -> int
(** Full-width polynomial hash over {e every} element (unlike
    [Hashtbl.hash], which truncates), folded afresh on every call:
    a pure function of the path's contents.  Suitable for the engine's
    state and oscillation-watchdog fingerprints. *)

val rattr : Rattr.t -> Rattr.t
(** [rattr r] is the canonical record equal to [r] (every field
    compared) in the current tables — the PR-3 path arena extended to
    whole route attributes.  Use it where the same record genuinely
    recurs (the engine interns each run's originated routes, shared
    across the runs of a net); per-import candidates are better left
    plain — they rarely repeat, and the table probe was measured at
    20-35 % of engine throughput.  Never pass {!Rattr.no_route}. *)

type stats = { paths : int; prepends : int; rattrs : int }
(** Fill of the {e current domain's current} tables: a scope's inside
    {!enter}, the ambient set outside. *)

val stats : unit -> stats

val table_cap : int
(** Per-table entry cap; a table is reset (not grown) past it, so
    [Analysis.Audit] asserts every fill stays [<= table_cap]. *)
