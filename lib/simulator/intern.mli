(** Domain-local hash-consing of AS-path arrays.

    The engine funnels every path it creates through this module so
    that identical paths within a domain share one canonical array:
    repeated eBGP prepends of the same best route allocate nothing, and
    path comparisons can try physical equality before structural
    equality.  Tables live in [Domain.DLS] — no locks, no sharing
    between {!Pool} workers — so canonical identity is per-domain and
    callers must always keep a structural fallback. *)

val path : int array -> int array
(** [path p] is the canonical array equal to [p] in the current domain
    (possibly [p] itself).  The empty path is a global constant. *)

val prepend : own_as:int -> int array -> int array
(** [prepend ~own_as p] is the canonical array for [own_as] consed onto
    [p] — the eBGP export prepend — memoized per [(own_as, p)], so the
    common case (re-exporting an unchanged best route) is a hit, and a
    hit allocates nothing: the memo is probed through one reusable key
    per domain, with no key tuple and no option. *)

val path_hash : int array -> int
(** Full-width polynomial hash over {e every} element (unlike
    [Hashtbl.hash], which truncates), folded afresh on every call:
    a pure function of the path's contents.  Suitable for the engine's
    state and oscillation-watchdog fingerprints. *)

val rattr : Rattr.t -> Rattr.t
(** [rattr r] is the canonical record equal to [r] (every field
    compared) in the current domain — the PR-3 path arena extended to
    whole route attributes.  Use it where the same record genuinely
    recurs (the engine interns each run's originated routes, shared
    across the runs of a domain); per-import candidates are better left
    plain — they rarely repeat, and the table probe was measured at
    20-35 % of engine throughput.  Never pass {!Rattr.no_route}. *)

type stats = { paths : int; prepends : int; rattrs : int }
(** Fill of the {e current domain's} tables. *)

val stats : unit -> stats

val table_cap : int
(** Per-table entry cap; a table is reset (not grown) past it, so
    [Analysis.Audit] asserts every fill stays [<= table_cap]. *)
