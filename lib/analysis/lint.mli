(** Lint entry points: run every rule family over a model.

    Static rules ({!Rules}) plus the structural audits ({!Audit}) that
    cross-validate the frozen fast-path structures against the live
    net.  No simulation is run, so linting is cheap enough for CI and
    for the refiner's post-run self-check ([check] does spawn one
    short-lived domain for the prepend-memo isolation audit). *)

val check_net : Simulator.Net.t -> Report.t
(** Structural rules and the CSR audit (no origin-table context): the
    net-only part of {!check}.  A test seam: the tests corrupt a bare
    net through {!Simulator.Net.Unsafe} and check that each corruption
    {!check} relies on catching is reported. *)

val check : Asmodel.Qrmodel.t -> Report.t
(** Structural and policy rules, the CSR audit and the prepend-memo
    integrity audit.  A freshly refined model is expected to be clean
    of [Error]s; [asmodel lint] exits non-zero otherwise. *)
