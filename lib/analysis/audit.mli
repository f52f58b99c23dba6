(** Structural auditor for the frozen fast-path structures.

    The flat-memory engine core (PR 8) trades safety for speed: the CSR
    session index, the route slab with its physical [no_route] sentinel
    and the per-net prepend memo all {e duplicate} information
    whose ground truth lives in the mutable {!Simulator.Net}.  This
    module cross-validates the copies against the truth — each check
    reads both sides through independent code paths, so a stale cache,
    a bypassed generation bump or a corrupted slab surfaces as a
    finding rather than a silently wrong simulation.

    Audits are pure reads and report via {!Report.finding}; findings of
    one rule are capped (a systematically broken structure yields a
    bounded report plus a suppression note). *)

val csr : Simulator.Net.t -> Report.finding list
(** Compare the CSR index ({!Simulator.Net.csr}) against the live node
    records: generation currency, offset shape, per-slot
    peer/kind/class/lpref/carry/rr agreement, [rev]/[reverse_local]
    round-trips, per-node ASN and address tables.  Rules
    [audit-csr-*]. *)

val state : Simulator.Net.t -> Simulator.Engine.state -> Report.finding list
(** Audit a frozen engine state against the net it claims to model:
    slab discipline (slot/session agreement, sentinel never cloned
    structurally, eBGP paths start at the announcing AS and are
    loop-free) and — when the state is converged and the net unchanged
    — full exporter consistency (each RIB-In entry is exactly what the
    peer's best route exports under the live policies) and best-route
    agreement with {!Simulator.Decision.select}.  A state computed at
    an older generation (or with pending per-prefix edits) yields a
    [Warn] and skips the checks that would be meaningless.  Rules
    [audit-slab-*], [audit-best], [audit-sentinel-clone],
    [audit-stale-*]. *)

val intern_integrity : Simulator.Net.t -> Report.finding list
(** Exercise the prepend memo of {!Simulator.Intern} in the calling
    domain: on a fresh scope, prepending to equal paths returns one
    array and a freshly spawned domain gets its own table (no memoized
    array crosses domains); and the calling domain's memo for the net
    holds no more than {!Simulator.Intern.table_cap} entries.  Spawns
    (and joins) one short-lived domain.  Rules [audit-intern-*]. *)

val net : Simulator.Net.t -> Report.finding list
(** The net-level audits ({!csr}) — what {!Lint.check_net} folds in. *)

val model : Asmodel.Qrmodel.t -> Report.finding list
(** The model-level static audits — {!csr} of the model's net.
    State-level audits need simulated states; [asmodel check] runs
    those explicitly. *)
