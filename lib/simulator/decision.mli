(** The BGP decision process (paper §2, Figure 1).

    The process is a sequence of elimination steps over the candidate
    routes of a node's RIB-In.  Each configuration lists its steps; the
    paper's quasi-router model uses
    [\[Local_pref; Path_length; Med; Lowest_ip\]] with always-compare
    MED, while the router-level ground truth additionally uses
    [Prefer_ebgp] and [Igp_cost] (hot-potato routing) and scopes MED
    comparison per neighbouring AS as RFC 4271 §9.1.2.2 requires. *)

type step =
  | Local_pref  (** keep the highest LOCAL_PREF *)
  | Path_length  (** keep the shortest AS-path *)
  | Med  (** keep the lowest MED; scope set by {!med_scope} *)
  | Prefer_ebgp  (** prefer eBGP-learned (and originated) over iBGP *)
  | Igp_cost  (** keep the lowest IGP cost to the egress (hot potato) *)
  | Lowest_ip  (** final tie-break: lowest announcing-router address *)

val step_to_string : step -> string

val model_steps : step list
(** The quasi-router model's process (paper §4.5–4.6). *)

val full_steps : step list
(** The complete router-level process used by the ground truth. *)

type med_scope =
  | Always_compare
      (** the paper's §4.6 MED {e ranking}: MED is compared between any
          two routes, regardless of which neighbour announced them.
          This deliberate deviation from the RFC is what makes the
          refiner's per-prefix MED rules a total ranking — keep it for
          {!model_steps}. *)
  | Same_neighbor
      (** RFC 4271 §9.1.2.2: MED is only comparable between routes
          learned from the same neighbouring AS (first AS of the path;
          originated routes form their own group).  The realistic
          {!full_steps} process must use this scope. *)

val survivors : ?med_scope:med_scope -> step -> Rattr.t list -> Rattr.t list
(** Candidates remaining after one elimination step (order preserved).
    [med_scope] (default {!Always_compare}) only affects the {!Med}
    step; under {!Same_neighbor} a candidate is eliminated exactly when
    another candidate from the same neighbouring AS has a strictly
    lower MED. *)

val compare_routes : step list -> Rattr.t -> Rattr.t -> int
(** Total preference order induced by the elimination steps under
    {!Always_compare} MED: negative when the first route wins.  Running
    elimination then equals taking the lexicographic minimum under this
    order (ties resolved by list order), which is what the engine's hot
    path does.  Under {!Same_neighbor} MED no such total order exists
    (pairwise MED preference is not transitive across neighbours), so
    the engine falls back to full elimination via {!select}. *)

val comparator : step list -> Rattr.t -> Rattr.t -> int
(** [comparator steps] is [compare_routes steps], compiled once: the
    returned function walks no list and allocates nothing per call, so
    the engine compiles it once per run and calls it per candidate. *)

val select : ?med_scope:med_scope -> step list -> Rattr.t list -> Rattr.t option
(** Run all steps and return the single best route ([None] on an empty
    candidate list).  If candidates remain tied after every step the
    first in list order wins — deterministic because RIB-In order is
    session order. *)

(** {2 Comparing RIB-In slots}

    The engine's route slab holds {!Rattr.import} records, one per
    slot; a slot's remaining route fields come from its session.  These
    functions run the decision process over slots without building the
    whole routes. *)

type sessions = {
  kinds : int array;  (** slot -> [0] eBGP, [1] iBGP ({!Net.Csr.kinds}) *)
  peer : int array;  (** slot -> announcing node ({!Net.Csr.peer}) *)
  ips : int array;  (** node -> router address ({!Net.Csr.ips}) *)
}
(** Where a slot's provenance comes from: slot [k]'s route was learned
    over eBGP or iBGP as [kinds.(k)] says, and its [from_ip] is
    [ips.(peer.(k))]. *)

val slot_comparator :
  step list -> sessions -> Rattr.import -> int -> Rattr.import -> int -> int
(** [slot_comparator steps sessions a ka b kb] is [compare_routes
    steps] over the routes of import [a] in slot [ka] and import [b] in
    slot [kb].  Compiled once, like {!comparator}; a call allocates
    nothing. *)

val slot_route_comparator :
  step list -> sessions -> Rattr.import -> int -> Rattr.t -> int
(** [slot_route_comparator steps sessions a ka r] is [compare_routes
    steps] over the route of import [a] in slot [ka] and the route [r].
    Compiled once; a call allocates nothing. *)

val select_slots :
  med_scope:med_scope ->
  step list ->
  sessions ->
  own_ip:int ->
  Rattr.import array ->
  shift:int ->
  ids:int array ->
  keys:int array ->
  int ->
  int
(** [select_slots ~med_scope steps sessions ~own_ip slots ~shift ~ids
    ~keys m] is [select ~med_scope steps] over [m > 0] candidates —
    same elimination, same tie-breaking — and returns the winner's id.
    Candidate [i] is the route in slot [ids.(i)], whose import is
    [slots.(ids.(i) + shift)], or, when [ids.(i)] is negative, the
    node's originated route, whose address is [own_ip].  Runs in place
    over the caller's int buffers, destroying their contents and
    allocating nothing; [keys] is scratch of at least [m] entries.  The
    engine's hot path under {!Same_neighbor} MED (where
    {!compare_routes} does not apply). *)

type verdict =
  | Selected  (** a target route is the best route *)
  | Eliminated_at of step  (** step at which the last target was dropped *)
  | Tied_not_chosen
      (** a target survived every step but lost the final in-order pick
          (only possible when two sessions share an announcing IP) *)
  | Not_present  (** no candidate satisfies the target predicate *)

val classify :
  ?med_scope:med_scope -> step list -> target:(Rattr.t -> bool) ->
  Rattr.t list -> verdict
(** Where in the elimination process the target route(s) die — the
    machinery behind the paper's "potential RIB-Out match" (eliminated
    exactly at {!Lowest_ip}) and the Table 2 disagreement breakdown. *)
