(** The eBGP prepend memo, scoped to the net it serves.

    The only AS-path the engine makes is the eBGP export prepend, and a
    node re-exports the same best route many times over a run and over
    the runs of a net.  The memo maps [(own_as, path)] to the prepended
    array, so re-exporting an unchanged best route allocates nothing
    and hands every peer the same array: path comparisons can try
    physical equality before structural equality.  Each net carries a
    {!scope}, and an engine run fetches the calling domain's {!tables}
    for its net once and prepends through them, so the memo of a net
    dies with the net.  Tables are domain-local — no locks, no sharing
    between {!Pool} workers — so a memoized array is shared per domain
    and scope only, and callers must always keep a structural
    fallback. *)

type scope
(** A token naming one memo per domain.  The domain that made it keeps
    its memo in the token; other domains find theirs through an
    ephemeron table.  Either way, the memo is reclaimed with the
    token. *)

val scope : unit -> scope
(** A fresh scope; [Net.create] makes one per net. *)

type tables
(** One domain's memo for one scope.  Use it only in the domain that
    fetched it. *)

val tables : scope -> tables
(** [tables s] is the calling domain's memo for [s], made empty on the
    domain's first call.  Fetching a scope the domain made allocates
    nothing after the first time; fetching any scope again finds the
    memo it filled before, so switching between live nets re-memoizes
    nothing. *)

val prepend : tables -> own_as:int -> int array -> int array
(** [prepend t ~own_as p] is [own_as] consed onto [p] — the eBGP export
    prepend — memoized per [(own_as, p)] with [p] compared
    structurally, so the common case (re-exporting an unchanged best
    route) returns the array an earlier call made.  A hit allocates
    nothing: the memo is probed through one reusable key per table,
    with no key tuple and no option. *)

val size : tables -> int
(** Entries in the memo; never more than {!table_cap}. *)

val table_cap : int
(** Entry cap; the memo is reset (not grown) past it, so
    [Analysis.Audit] asserts every net's fill stays [<= table_cap]. *)

val path_hash : int array -> int
(** Full-width polynomial hash over {e every} element (unlike
    [Hashtbl.hash], which truncates), folded afresh on every call:
    a pure function of the path's contents.  Suitable for the engine's
    state and oscillation-watchdog fingerprints. *)
