(** Mutation-discipline checker (the [RD_CHECK] knob).

    The pool's contract is that nothing mutates a network while a batch
    may be reading it, and the warm-start resume of PR 3 additionally
    relies on every mutation maintaining the generation / touched-set
    bookkeeping.  With [RD_CHECK=on] this module installs itself as
    {!Simulator.Net.set_mutation_hook} observer and audits every
    mutation:

    - {b ownership}: the first domain that mutates a net owns it; a
      mutation from any other domain is recorded as a violation;
    - {b batch scope}: any mutation while {!Simulator.Pool.batch_active}
      is a violation — mutation must never be concurrent with
      simulation;
    - {b bookkeeping soundness}: a structural mutation must have bumped
      the generation counter, and a per-prefix mutation must have
      recorded its node in the prefix's touched set.

    Violations are recorded (thread-safely) rather than raised: the
    checker must not change control flow, only observability.  The
    refiner reports them after each run; tests assert on them.  With
    [RD_CHECK=off] (the default) no hook is installed and mutators pay
    one load and a branch. *)

val set : Simulator.Runtime.Check_mode.t -> unit
(** The one setter of the check knob (CLI flag, tests, bench): writes
    the mode through {!Simulator.Runtime.set} and installs or removes
    the {!Simulator.Net} hook accordingly.  [Race] keeps this hook and
    additionally installs the {!Race} happens-before detector's
    {!Obs.Probe} hook — a strict superset of [On]. *)

val current : unit -> Simulator.Runtime.Check_mode.t
(** The mode in force, read from {!Simulator.Runtime} ([RD_CHECK] from
    the environment unless set, else [Off]) — and the hook is synced to
    it, so a mode restored with a whole-record [Runtime.set] takes
    effect here. *)

val ensure : unit -> unit
(** Resolve the mode (and install the hook if needed) — called at
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

val reset : unit -> unit
(** Drop recorded violations and forget net ownership. *)

val pp_violation : Format.formatter -> violation -> unit
