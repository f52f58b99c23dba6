(** The [RD_CHECK] checker: its one entry point.

    The pool's contract is that nothing mutates a network while a batch
    may be reading it, and warm-start resume additionally relies on
    every mutation maintaining the generation / touched-set
    bookkeeping.  With [RD_CHECK=on] this module installs two hooks:

    - the {!Race} happens-before detector as the {!Obs.Probe} hook: a
      mutation from a domain whose history is not ordered with the
      net's other accesses (a foreign domain, no published edge) is a
      race;
    - itself as {!Simulator.Net.set_mutation_hook} observer, auditing
      what no vector clock can see:
      - {b batch scope}: any mutation while
        {!Simulator.Pool.batch_active} is a violation — mutation must
        never be concurrent with simulation, even at [jobs = 1] where
        the batch runs inline in the caller's domain;
      - {b bookkeeping soundness}: a structural mutation must have
        bumped the generation counter, and a per-prefix mutation must
        have recorded its node in the prefix's touched set.

    Findings are recorded (thread-safely) rather than raised: the
    checker must not change control flow, only observability.  The
    refiner reports them after each run; tests assert on them.  With
    [RD_CHECK=off] (the default) neither hook is installed and
    mutators pay one load and a branch per hook. *)

val set : Simulator.Runtime.Check_mode.t -> unit
(** The one setter of the check knob (CLI flag, tests, bench): writes
    the mode through {!Simulator.Runtime.set} and installs ([On]) or
    removes ([Off]) both hooks. *)

val current : unit -> Simulator.Runtime.Check_mode.t
(** The mode in force, read from {!Simulator.Runtime} ([RD_CHECK] from
    the environment unless set, else [Off]) — and the hooks are synced
    to it, so a mode restored with a whole-record [Runtime.set] takes
    effect here. *)

val ensure : unit -> unit
(** Resolve the mode (and install the hooks if needed) — called at
    refiner entry so linking the library suffices to honour
    [RD_CHECK]. *)

type violation = {
  rule : string;  (** the mutator that fired, e.g. ["deny-export"] *)
  domain : int;  (** id of the mutating domain *)
  in_batch : bool;  (** a {!Simulator.Pool} batch was in flight *)
  detail : string;
}

val record : Simulator.Net.t -> Simulator.Net.mutation -> unit
(** The hook itself, exposed so tests can drive the audit directly
    (it records violations whether or not the hook is installed). *)

val violations : unit -> violation list
(** All violations since the last {!reset}, oldest first. *)

val violation_count : unit -> int

val findings : unit -> Report.finding list
(** Every recorded violation as an [Error] finding (rule
    [rd-check-<mutator>]), followed by {!Race.findings}. *)

val count : unit -> int
(** {!violation_count} plus {!Race.race_count}: the number of
    {!findings}. *)

val reset : unit -> unit
(** Drop recorded violations and tracked nets, and {!Race.reset}. *)
