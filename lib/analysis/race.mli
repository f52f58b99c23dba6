(** Happens-before race detector (half of the [RD_CHECK=on] mode).

    A vector-clock/epoch checker over the {!Obs.Probe} instrumentation:
    {!Simulator.Pool} publishes worker spawn/join as release/acquire
    edges, Snapshot writer sections publish their lock, and the shared
    structures (net structure and policy tables, the CSR publish,
    engine state slabs, replay journals, metrics counters) record their
    accesses.  Two accesses to the same object race when at least one
    is a write, they come from different domains, and neither
    happens-before the other under the published edges; each race is
    recorded once per (object, sites) pair with both access sites and
    both domain ids.

    Documented benign races are declared — with a written
    justification — in the single {!allowlist}; the detector still
    sees them (they count in {!benign_count}) but they produce no
    finding.  {e Anything undeclared fails.}

    Like {!Ownership}, the detector records rather than raises.  The
    check mode lives in {!Simulator.Runtime}; {!Ownership} is its one
    entry point: {!Ownership.set}, {!Ownership.current} and
    {!Ownership.ensure} install {!hook} under [on] next to the mutation
    audit, and {!Ownership.findings}, {!Ownership.count} and
    {!Ownership.reset} cover both checkers. *)

type access = { site : string; domain : int }

type race = {
  obj : string;  (** shared-object name, e.g. ["net#3/policy"] *)
  conflict : string;  (** ["write-write"], ["read-write"], ["write-read"] *)
  prior : access;
  current : access;
}

val allowlist : (string * string) list
(** The declared benign races: [(object-name fragment, justification)].
    An access pair on a matching object is suppressed and counted in
    {!benign_count} instead of reported. *)

val hook : Obs.Probe.hook
(** The detector, as the {!Obs.Probe} hook {!Ownership} installs. *)

val races : unit -> race list
(** Non-benign races since the last {!reset}, oldest first,
    de-duplicated by (object, conflict, sites). *)

val race_count : unit -> int

val benign_count : unit -> int
(** Allowlisted race observations — proof the declarations are doing
    work, not masking silence. *)

val findings : unit -> Report.finding list
(** {!races} rendered as [Error] findings (rule [race-*]) for
    {!Lint}-style reporting and the [asmodel check] exit code. *)

val reset : unit -> unit
(** Drop recorded races, clocks, channels and object histories. *)
